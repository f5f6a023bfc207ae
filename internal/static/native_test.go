package static

import (
	"testing"

	"repro/internal/arm"
	"repro/internal/dvm"
	"repro/internal/kernel"
	"repro/internal/libc"
	"repro/internal/mem"
)

// assembleFixture builds a tiny library with fake extern symbols and returns
// the program plus a resolver over those symbols.
func assembleFixture(t *testing.T, src string) (*arm.Program, func(uint32) (string, bool)) {
	t.Helper()
	extern := map[string]uint32{
		"GetStringUTFChars":     0x7f000010,
		"ReleaseStringUTFChars": 0x7f000020,
		"NewStringUTF":          0x7f000030,
		"strlen":                0x7f000040,
		"malloc":                0x7f000050,
		"write":                 0x7f000060,
	}
	prog, err := arm.Assemble(src, 0x40000000, extern)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	byAddr := make(map[uint32]string)
	for name, addr := range extern {
		byAddr[addr] = name
	}
	return prog, func(a uint32) (string, bool) {
		n, ok := byAddr[a]
		return n, ok
	}
}

func TestNativeCFGCallsAndReturns(t *testing.T) {
	prog, resolve := assembleFixture(t, `
entry:
	PUSH {R4, LR}
	BL strlen
	BL helper
	POP {R4, PC}

helper:
	MOV R0, #1
	BX LR
`)
	entry, err := prog.Label("entry")
	if err != nil {
		t.Fatal(err)
	}
	cfg := BuildNativeCFG(prog, map[uint32]string{entry: "entry"}, resolve)

	fn := cfg.Funcs[entry]
	if fn == nil {
		t.Fatal("entry function not discovered")
	}
	if fn.Unresolved || fn.BadDecode {
		t.Fatalf("entry should fully resolve: %+v", fn)
	}
	if len(fn.Calls) != 1 || fn.Calls[0] != "strlen" {
		t.Fatalf("entry Calls = %v, want [strlen]", fn.Calls)
	}
	if len(fn.LocalCalls) != 1 {
		t.Fatalf("entry LocalCalls = %v, want one helper entry", fn.LocalCalls)
	}
	helper := cfg.Funcs[fn.LocalCalls[0]]
	if helper == nil {
		t.Fatal("helper function not discovered from the BL edge")
	}
	// helper's BX LR must be classified as a return.
	found := false
	for _, a := range helper.Body {
		if cfg.Insns[a] != nil && cfg.Insns[a].Return {
			found = true
		}
	}
	if !found {
		t.Fatal("helper has no return instruction")
	}
}

func TestNativeCFGVeneerTailCall(t *testing.T) {
	// Extern B assembles to the MOVW/MOVT/BX IP veneer; the constant tracker
	// must classify it as an extern tail call, not an indirect transfer.
	prog, resolve := assembleFixture(t, `
entry:
	B strlen
`)
	entry, _ := prog.Label("entry")
	cfg := BuildNativeCFG(prog, map[uint32]string{entry: "entry"}, resolve)
	fn := cfg.Funcs[entry]
	if fn.Unresolved {
		t.Fatalf("veneer should resolve statically: %+v", fn)
	}
	if len(fn.Calls) != 1 || fn.Calls[0] != "strlen" {
		t.Fatalf("Calls = %v, want [strlen]", fn.Calls)
	}
	ret := false
	for _, a := range fn.Body {
		if cfg.Insns[a] != nil && cfg.Insns[a].CallName == "strlen" && cfg.Insns[a].Return {
			ret = true
		}
	}
	if !ret {
		t.Fatal("extern tail call should carry the Return mark")
	}
}

func TestNativeCFGConditionalBranch(t *testing.T) {
	prog, resolve := assembleFixture(t, `
entry:
	CMP R0, #0
	BEQ skip
	MOV R0, #1
skip:
	BX LR
`)
	entry, _ := prog.Label("entry")
	cfg := BuildNativeCFG(prog, map[uint32]string{entry: "entry"}, resolve)
	fn := cfg.Funcs[entry]
	if len(fn.Body) != 4 {
		t.Fatalf("body should contain all 4 instructions, got %d", len(fn.Body))
	}
	// The BEQ must have two successors: target and fall-through.
	beq := cfg.Insns[entry+4]
	if beq == nil || len(beq.Succs) != 2 {
		t.Fatalf("conditional branch successors = %+v, want 2", beq)
	}
}

func TestLintUnreleasedHandle(t *testing.T) {
	// Gets the chars, never releases: the pairing analysis must flag the
	// outstanding handle at return.
	prog, resolve := assembleFixture(t, `
entry:
	PUSH {R4, LR}
	BL GetStringUTFChars
	MOV R4, R0
	BL strlen
	POP {R4, PC}
`)
	entry, _ := prog.Label("entry")
	cfg := BuildNativeCFG(prog, map[uint32]string{entry: "Java_entry"}, resolve)
	findings := lintHandles(cfg, cfg.Funcs[entry])
	if len(findings) != 1 {
		t.Fatalf("findings = %v, want exactly the unreleased-handle one", findings)
	}
	if got := findings[0].Detail; got == "" || findings[0].Layer != "static" {
		t.Fatalf("finding shape wrong: %+v", findings[0])
	}
}

func TestLintReleasedHandleClean(t *testing.T) {
	// Proper Get/Release pairing: no findings.
	prog, resolve := assembleFixture(t, `
entry:
	PUSH {R4, R5, LR}
	MOV R4, R0
	MOV R5, R1
	BL GetStringUTFChars
	MOV R2, R0
	MOV R0, R4
	MOV R1, R5
	BL ReleaseStringUTFChars
	POP {R4, R5, PC}
`)
	entry, _ := prog.Label("entry")
	cfg := BuildNativeCFG(prog, map[uint32]string{entry: "Java_entry"}, resolve)
	if findings := lintHandles(cfg, cfg.Funcs[entry]); len(findings) != 0 {
		t.Fatalf("paired Get/Release should be clean, got %v", findings)
	}
}

func TestLintUseAfterRelease(t *testing.T) {
	// The handle is released, then passed to strlen: use-after-release.
	prog, resolve := assembleFixture(t, `
entry:
	PUSH {R4, R5, R6, LR}
	MOV R4, R0
	MOV R5, R1
	BL GetStringUTFChars
	MOV R6, R0
	MOV R2, R6
	MOV R0, R4
	MOV R1, R5
	BL ReleaseStringUTFChars
	MOV R0, R6
	BL strlen
	POP {R4, R5, R6, PC}
`)
	entry, _ := prog.Label("entry")
	cfg := BuildNativeCFG(prog, map[uint32]string{entry: "Java_entry"}, resolve)
	findings := lintHandles(cfg, cfg.Funcs[entry])
	uar := false
	for _, f := range findings {
		if f.Kind.String() == "jni-misuse" && f.Layer == "static" &&
			containsAll(f.Detail, "after release", "strlen") {
			uar = true
		}
	}
	if !uar {
		t.Fatalf("use-after-release not flagged; findings = %v", findings)
	}
}

func containsAll(s string, subs ...string) bool {
	for _, sub := range subs {
		if !contains(s, sub) {
			return false
		}
	}
	return true
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// mapResolver is the resolver buildResolver replaced: the libc and JNI
// symbol tables inverted into one map (JNI names winning a shared address),
// falling back to the libdvm reverse table.
func mapResolver(vm *dvm.VM) func(uint32) (string, bool) {
	byAddr := make(map[uint32]string)
	for name, addr := range vm.Libc.Syms() {
		byAddr[addr&^1] = name
	}
	for name, addr := range vm.JNISyms() {
		byAddr[addr&^1] = name
	}
	return func(addr uint32) (string, bool) {
		if name, ok := byAddr[addr&^1]; ok {
			return name, true
		}
		return vm.InternalName(addr &^ 1)
	}
}

// TestBuildResolverMatchesSymbolMaps: resolving through the VM's reverse
// tables gives the same name as the inverted symbol maps for every libc,
// libm, JNIEnv and libdvm address (Thumb bit set or not), and the same miss
// just past each one.
func TestBuildResolverMatchesSymbolMaps(t *testing.T) {
	m := mem.New()
	k := kernel.New(m)
	task := k.NewTask("app_process")
	c := arm.New(m)
	lc, err := libc.New(m, k, task)
	if err != nil {
		t.Fatal(err)
	}
	vm := dvm.New(m, c, k, task, lc)
	got, want := buildResolver(vm), mapResolver(vm)
	var addrs []uint32
	for _, a := range vm.Libc.Syms() {
		addrs = append(addrs, a)
	}
	for _, a := range vm.JNISyms() {
		addrs = append(addrs, a)
	}
	if len(addrs) < 100 {
		t.Fatalf("only %d symbol addresses; the VM tables are not populated", len(addrs))
	}
	for _, a := range addrs {
		for _, probe := range []uint32{a, a | 1, a &^ 1, a + 2, a + 4} {
			gn, gok := got(probe)
			wn, wok := want(probe)
			if gn != wn || gok != wok {
				t.Errorf("%#x: resolved %q,%v, want %q,%v", probe, gn, gok, wn, wok)
			}
		}
	}
}
