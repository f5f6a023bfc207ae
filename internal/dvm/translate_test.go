package dvm

import (
	"testing"

	"repro/internal/dex"
	"repro/internal/taint"
)

// registerParityClasses builds a class hierarchy exercising every translated
// opcode family: arithmetic (int/long/float/double), conversions, compares,
// arrays (narrow and wide), instance/static fields, const-strings, static and
// virtual invokes with overriding, and exception paths (caught, rethrown,
// propagated across frames). Classes must be built fresh per VM.
func registerParityClasses(vm *VM) {
	const base = "Lcom/parity/Base;"
	const sub = "Lcom/parity/Sub;"
	const k = "Lcom/parity/K;"

	bb := dex.NewClass(base)
	bb.InstanceField("x", false)
	bb.Method("weight", "I", 0, 1).
		Const(0, 10).
		Return(0).
		Done()
	vm.RegisterClass(bb.Build())

	sb := dex.NewClass(sub).Super(base)
	sb.Method("weight", "I", 0, 1).
		Const(0, 77).
		Return(0).
		Done()
	vm.RegisterClass(sb.Build())

	cb := dex.NewClass(k)
	cb.StaticField("acc", false)

	// Integer/shift/compare kitchen sink: f(n) over a loop.
	cb.Method("arith", "II", dex.AccStatic, 4).
		Const(0, 0).
		Const(1, 3).
		Label("loop").
		IfZ(4, dex.Le, "done").
		Bin(dex.Add, 0, 0, 4).
		Bin(dex.Xor, 0, 0, 1).
		Bin(dex.Shl, 2, 0, 1).
		Bin(dex.Ushr, 2, 2, 1).
		Bin(dex.Or, 0, 0, 2).
		BinLit(dex.And, 0, 0, 0x7fffffff).
		BinLit(dex.Rem, 2, 0, 9973).
		BinLit(dex.Sub, 4, 4, 1).
		Goto("loop").
		Label("done").
		Return(2).
		Done()

	// Wide + float + double arithmetic and conversions, result folded to int.
	cb.Method("fp", "II", dex.AccStatic, 8).
		IntToLong(0, 8).             // (v0,v1) = n
		ConstWide(2, 7).             // (v2,v3) = 7
		BinWide(dex.Mul, 0, 0, 2).   //
		BinWide(dex.Add, 0, 0, 2).   //
		LongToInt(4, 0).             //
		IntToFloat(5, 4).            //
		IntToFloat(6, 8).            //
		BinFloat(dex.Add, 5, 5, 6).  //
		BinFloat(dex.Mul, 5, 5, 6).  //
		FloatToInt(5, 5).            //
		IntToDouble(0, 5).           // (v0,v1)
		IntToDouble(2, 8).           // (v2,v3)
		BinDouble(dex.Div, 0, 0, 2). //
		DoubleToInt(6, 0).           //
		CmpFloatOp(7, 5, 6).         //
		Bin(dex.Add, 6, 6, 7).       //
		Bin(dex.Add, 6, 6, 5).       //
		Bin(dex.Add, 6, 6, 4).       //
		Return(6).
		Done()

	// Arrays: narrow get/put, length, plus static-field accumulation.
	cb.Method("arrays", "II", dex.AccStatic, 4).
		Const(0, 16).
		NewArray(1, 0, "I").
		Const(0, 0). // i
		Label("fill").
		If(0, dex.Ge, 4, "sum").
		Bin(dex.Mul, 2, 0, 0).
		Aput(2, 1, 0).
		BinLit(dex.Add, 0, 0, 1).
		Goto("fill").
		Label("sum").
		ArrayLength(0, 1).
		Sput(0, k, "acc").
		Const(0, 0).
		Const(2, 0).
		Label("sl").
		If(0, dex.Ge, 4, "out").
		Aget(3, 1, 0).
		Bin(dex.Add, 2, 2, 3).
		BinLit(dex.Add, 0, 0, 1).
		Goto("sl").
		Label("out").
		Sget(3, k, "acc").
		Bin(dex.Add, 2, 2, 3).
		Return(2).
		Done()

	// Instance fields + const-string + virtual dispatch on both classes.
	cb.Method("objs", "II", dex.AccStatic, 4).
		NewInstance(0, sub).
		InvokeDirect(sub, "<init>", "V", 0).
		Iput(4, 0, base, "x").
		Iget(1, 0, base, "x").
		InvokeVirtual(base, "weight", "I", 0). // dispatches to Sub.weight
		MoveResult(2).
		Bin(dex.Add, 1, 1, 2).
		ConstString(3, "parity").
		InvokeVirtual("Ljava/lang/String;", "length", "I", 3).
		MoveResult(3).
		Bin(dex.Add, 1, 1, 3).
		Return(1).
		Done()
	// Sub needs a direct <init>.
	subCls, _ := vm.Class(sub)
	ib := dex.NewClass("Lcom/parity/tmp;") // builder only; method moved below
	init := ib.Method("<init>", "VL", 0, 0).
		ReturnVoid().
		Done()
	init.Class = subCls
	subCls.Methods = append(subCls.Methods, init)

	// Exceptions: caught div-by-zero, caught explicit throw, and an
	// out-of-bounds caught from a callee two frames down.
	cb.Method("boom", "VI", dex.AccStatic, 2).
		Const(0, 4).
		NewArray(0, 0, "I").
		Aget(1, 0, 2). // index = arg, may be out of bounds
		ReturnVoid().
		Done()
	cb.Method("excep", "III", dex.AccStatic, 3).
		Label("t0").
		BinLit(dex.Add, 0, 3, 0).
		Bin(dex.Div, 0, 0, 4). // may divide by zero
		Label("t0end").
		Goto("t1").
		Label("h0").
		MoveException(1).
		Const(0, -1).
		Label("t1").
		InvokeStatic(k, "boom", "VI", 3).
		Label("t1end").
		Goto("t2").
		Label("h1").
		MoveException(1).
		BinLit(dex.Add, 0, 0, 1000).
		Label("t2").
		NewInstance(1, "Ljava/lang/RuntimeException;").
		Throw(1).
		Label("t2end").
		Goto("ret").
		Label("h2").
		MoveException(1).
		BinLit(dex.Add, 0, 0, 7).
		Label("ret").
		Return(0).
		Try("t0", "t0end", "h0", "").
		Try("t1", "t1end", "h1", "").
		Try("t2", "t2end", "h2", "Ljava/lang/RuntimeException;").
		Done()

	// uncaught propagates a throwable out of the method.
	cb.Method("uncaught", "V", dex.AccStatic, 1).
		NewInstance(0, "Ljava/lang/RuntimeException;").
		Throw(0).
		Done()

	vm.RegisterClass(cb.Build())
}

// parityRun invokes one method on a fresh VM configured by cfg and returns
// everything observable: value, taint, thrown class, error string, and the
// executed-instruction counter.
func parityRun(t *testing.T, noTranslate bool, cfg func(*VM), method string, args []uint32, taints []taint.Tag) (uint64, taint.Tag, string, string, uint64) {
	t.Helper()
	vm := newVM(t)
	vm.NoJavaTranslate = noTranslate
	if cfg != nil {
		cfg(vm)
	}
	registerParityClasses(vm)
	ret, rt, thrown, err := vm.InvokeByName("Lcom/parity/K;", method, args, taints)
	thrownCls, errStr := "", ""
	if thrown != nil && thrown.Class != nil {
		thrownCls = thrown.Class.Name
	}
	if err != nil {
		errStr = err.Error()
	}
	return ret, rt, thrownCls, errStr, vm.JavaInsnCount
}

// TestTranslateParity: the translated engine must be observationally
// identical to the interpreter — same values, same taints, same exceptions,
// and the same executed-instruction count — across taint configurations.
func TestTranslateParity(t *testing.T) {
	configs := []struct {
		name string
		cfg  func(*VM)
	}{
		{"vanilla", func(vm *VM) { vm.TaintJava = false }},
		{"taintdroid", func(vm *VM) { vm.TaintJava = true }},
		{"gated-clean", func(vm *VM) { vm.TaintJava = true; vm.GateJava = true }},
	}
	cases := []struct {
		method string
		args   []uint32
		taints []taint.Tag
	}{
		{"arith", []uint32{50}, nil},
		{"fp", []uint32{12}, nil},
		{"arrays", []uint32{16}, nil},
		{"objs", []uint32{5}, nil},
		{"excep", []uint32{20, 4}, nil},
		{"excep", []uint32{20, 0}, nil}, // divide by zero path
		{"uncaught", nil, nil},
		{"arith", []uint32{50}, []taint.Tag{taint.IMEI}},
		{"excep", []uint32{20, 0}, []taint.Tag{taint.SMS, 0}},
	}
	for _, c := range configs {
		for _, tc := range cases {
			ret1, rt1, th1, err1, n1 := parityRun(t, false, c.cfg, tc.method, tc.args, tc.taints)
			ret2, rt2, th2, err2, n2 := parityRun(t, true, c.cfg, tc.method, tc.args, tc.taints)
			if ret1 != ret2 || rt1 != rt2 || th1 != th2 || err1 != err2 {
				t.Errorf("%s/%s%v: translated (%d,%v,%q,%q) != interpreted (%d,%v,%q,%q)",
					c.name, tc.method, tc.args, ret1, rt1, th1, err1, ret2, rt2, th2, err2)
			}
			if n1 != n2 {
				t.Errorf("%s/%s%v: instruction count %d (translated) != %d (interpreted)",
					c.name, tc.method, tc.args, n1, n2)
			}
		}
	}
}

// TestConstStringInterning: a 10k-iteration const-string loop must not grow
// the heap, on the translated path and the interpreter fallback alike.
func TestConstStringInterning(t *testing.T) {
	for _, noTranslate := range []bool{false, true} {
		vm := newVM(t)
		vm.NoJavaTranslate = noTranslate
		cb := dex.NewClass("Lcom/intern/S;")
		cb.Method("spin", "LI", dex.AccStatic, 2).
			ConstString(0, "kept").
			Label("loop").
			IfZ(2, dex.Le, "done").
			ConstString(1, "churn").
			BinLit(dex.Sub, 2, 2, 1).
			Goto("loop").
			Label("done").
			Return(0).
			Done()
		vm.RegisterClass(cb.Build())

		// Warm up once so both const-string sites are interned.
		invoke(t, vm, "Lcom/intern/S;", "spin", 1)
		before := vm.HeapObjects()
		ret, _ := invoke(t, vm, "Lcom/intern/S;", "spin", 10000)
		after := vm.HeapObjects()
		if after != before {
			t.Errorf("noTranslate=%v: 10k const-string loop grew vm.objects %d -> %d",
				noTranslate, before, after)
		}
		o, ok := vm.ObjectAt(uint32(ret))
		if !ok || o.Str != "kept" {
			t.Errorf("noTranslate=%v: interned string lost: %+v", noTranslate, o)
		}
	}
}

// TestMidRunStepFnInvalidation: installing a JavaStepFn while a translated
// frame is mid-flight must deopt that frame before its next instruction —
// the observer sees every instruction that executes after the installing
// call returns.
func TestMidRunStepFnInvalidation(t *testing.T) {
	vm := newVM(t)
	var seen []int
	installer := dex.NewClass("Lcom/epoch/Install;").Build()
	addBuiltin(vm, installer, "arm", "V", dex.AccStatic, func(vm *VM, th *Thread, args []uint32, taints []taint.Tag) (uint64, taint.Tag, *Object) {
		vm.SetJavaStepFn(func(th *Thread, m *dex.Method, pc int, insn *dex.Insn) {
			if m.Name == "outer" {
				seen = append(seen, pc)
			}
		})
		return 0, 0, nil
	})
	vm.RegisterClass(installer)

	cb := dex.NewClass("Lcom/epoch/T;")
	cb.Method("outer", "V", dex.AccStatic, 2).
		Const(0, 1).                                     // pc 0
		Const(1, 2).                                     // pc 1
		InvokeStatic("Lcom/epoch/Install;", "arm", "V"). // pc 2: installs observer
		Bin(dex.Add, 0, 0, 1).                           // pc 3: must be observed
		Bin(dex.Add, 0, 0, 1).                           // pc 4: must be observed
		ReturnVoid().                                    // pc 5
		Done()
	vm.RegisterClass(cb.Build())

	// First run translates and compiles "outer".
	invoke(t, vm, "Lcom/epoch/T;", "outer")
	if len(seen) == 0 {
		t.Fatal("step function never fired after mid-run installation")
	}
	if seen[0] != 3 {
		t.Errorf("first observed pc = %d, want 3 (the instruction right after the installing call)", seen[0])
	}
	want := []int{3, 4, 5}
	if len(seen) != len(want) {
		t.Fatalf("observed pcs %v, want %v", seen, want)
	}
	for i := range want {
		if seen[i] != want[i] {
			t.Fatalf("observed pcs %v, want %v", seen, want)
		}
	}
	if vm.JavaDeopts == 0 {
		t.Error("expected a recorded deopt for the mid-run epoch bump")
	}
}

// TestMidRunHookInvalidation: registering an internal hook mid-run bumps the
// epoch, deopts the running translated frame, and forces retranslation on the
// next invocation.
func TestMidRunHookInvalidation(t *testing.T) {
	vm := newVM(t)
	installer := dex.NewClass("Lcom/epoch/Hooker;").Build()
	addBuiltin(vm, installer, "arm", "V", dex.AccStatic, func(vm *VM, th *Thread, args []uint32, taints []taint.Tag) (uint64, taint.Tag, *Object) {
		vm.HookInternal("dvmInterpret", InternalHook{})
		return 0, 0, nil
	})
	vm.RegisterClass(installer)

	cb := dex.NewClass("Lcom/epoch/H;")
	cb.Method("outer", "I", dex.AccStatic, 1).
		Const(0, 5).
		InvokeStatic("Lcom/epoch/Hooker;", "arm", "V").
		BinLit(dex.Add, 0, 0, 1).
		Return(0).
		Done()
	vm.RegisterClass(cb.Build())

	epochBefore := vm.TransEpoch()
	ret, _ := invoke(t, vm, "Lcom/epoch/H;", "outer")
	if ret != 6 {
		t.Fatalf("outer returned %d, want 6", ret)
	}
	if vm.TransEpoch() == epochBefore {
		t.Fatal("HookInternal did not bump the translation epoch")
	}
	if vm.JavaDeopts == 0 {
		t.Error("expected the running frame to deopt after the hook installation")
	}

	// The stale compiled form must not be reused: the next invocation
	// retranslates under the new epoch.
	trans := vm.JavaTransMethods
	m, _ := vm.classes["Lcom/epoch/H;"].Method("outer")
	cm, ok := m.Compiled.(*compiledMethod)
	if !ok {
		t.Fatal("method lost its compiled slot")
	}
	if cm.epoch == vm.TransEpoch() {
		t.Fatal("compiled form claims the new epoch without retranslation")
	}
	invoke(t, vm, "Lcom/epoch/H;", "outer")
	if vm.JavaTransMethods <= trans {
		t.Error("stale compiled method was reused instead of retranslated")
	}
}

// TestGateBailMidMethod: in a gated run, a source invoked mid-method flips
// the latch; the translated frame must switch from the clean variant to the
// tainting variant before the next instruction so the returned taint
// propagates.
func TestGateBailMidMethod(t *testing.T) {
	vm := newVM(t)
	vm.GateJava = true

	src := dex.NewClass("Lcom/bail/Src;").Build()
	addBuiltin(vm, src, "imei", "I", dex.AccStatic, func(vm *VM, th *Thread, args []uint32, taints []taint.Tag) (uint64, taint.Tag, *Object) {
		return 42, taint.IMEI, nil
	})
	vm.RegisterClass(src)

	cb := dex.NewClass("Lcom/bail/B;")
	cb.Method("flow", "I", dex.AccStatic, 2).
		Const(0, 1).
		InvokeStatic("Lcom/bail/Src;", "imei", "I").
		MoveResult(1). // after the bail this must copy the taint
		Bin(dex.Add, 0, 0, 1).
		Return(0).
		Done()
	vm.RegisterClass(cb.Build())

	ret, rt, thrown, err := vm.InvokeByName("Lcom/bail/B;", "flow", nil, nil)
	if err != nil || thrown != nil {
		t.Fatalf("flow: %v %v", err, thrown)
	}
	if ret != 43 {
		t.Errorf("flow returned %d, want 43", ret)
	}
	if rt != taint.IMEI {
		t.Errorf("flow return taint %v, want IMEI (clean variant kept running past the latch flip)", rt)
	}
	if vm.JavaGateBails == 0 {
		t.Error("expected a recorded clean->tainting bail")
	}
	if !vm.TaintSeen() {
		t.Error("latch did not flip")
	}
}
