package arm

import (
	"encoding/binary"
	"fmt"
	"testing"

	"repro/internal/fault"
	"repro/internal/mem"
	"repro/internal/taint"
)

// dispatchConfig is one engine configuration of the dispatch loop: the
// uncached and insn-cache interpreter arms, the block engine without a
// tracer, the block engine with a tracer and the gate off (every block on
// the instrumented per-step path), and with the gate on (clean blocks on the
// chained bare path).
type dispatchConfig struct {
	name         string
	dec, blk     bool
	tracer, gate bool
}

var dispatchConfigs = []dispatchConfig{
	{name: "uncached"},
	{name: "insn-cache", dec: true},
	{name: "block", dec: true, blk: true},
	{name: "block+tracer", dec: true, blk: true, tracer: true},
	{name: "block+gate", dec: true, blk: true, tracer: true, gate: true},
}

// dispatchCPU loads src at testBase and configures a CPU for cfg, returning
// it with its taint state (nil without a tracer) and the assembled program.
func dispatchCPU(t testing.TB, src string, cfg dispatchConfig) (*CPU, *miniTracer, *Program) {
	t.Helper()
	prog := MustAssemble(src, testBase, nil)
	m := mem.New()
	m.WriteBytes(prog.Base, prog.Code)
	c := New(m)
	c.UseDecodeCache = cfg.dec
	c.UseBlockCache = cfg.blk
	c.R[SP] = 0x80000
	var tr *miniTracer
	if cfg.tracer {
		live := taint.NewLiveness()
		mt := taint.NewMemTaint()
		mt.AttachLiveness(live)
		tr = &miniTracer{mt: mt}
		c.Tracer = tr
		c.AttachLiveness(live)
		c.UseTaintGate = cfg.gate
	}
	c.SetThumbPC(prog.Base)
	return c, tr, prog
}

// Two loop shapes: a block that branches to itself, and two blocks that
// branch to each other. Both enter through a one-instruction prologue, so
// the first dispatched block differs from the steady-state ones.
const (
	selfLoopSrc = `
_start:
	MOV R0, #0
loop:
	ADD R0, R0, #1
back:
	B loop
`
	twoBlockLoopSrc = `
_start:
	MOV R0, #0
a:
	ADD R0, R0, #1
atob:
	B b
b:
	ADD R1, R1, #2
btoa:
	B a
`
)

// TestInstructionBudget pins where the watchdog fires: the exact InsnCount,
// PC and loop counter at BudgetExceeded. The interpreter checks the budget
// after every instruction; the block engine checks it at every block
// boundary, so a block that straddles the limit runs to its end.
func TestInstructionBudget(t *testing.T) {
	type want struct {
		insns uint64
		pc    string // label
		r0    uint32
	}
	interp := map[string]map[uint64]want{
		"self": {100: {101, "loop", 50}, 101: {102, "back", 51}},
		"two":  {100: {101, "a", 25}, 101: {102, "atob", 26}},
	}
	block := map[string]map[uint64]want{
		"self": {100: {101, "loop", 50}, 101: {103, "loop", 51}},
		"two":  {100: {101, "a", 25}, 101: {103, "b", 26}},
	}
	for _, prog := range []struct{ name, src string }{
		{"self", selfLoopSrc}, {"two", twoBlockLoopSrc},
	} {
		for _, cfg := range dispatchConfigs {
			for _, budget := range []uint64{100, 101} {
				t.Run(fmt.Sprintf("%s/%s/%d", prog.name, cfg.name, budget), func(t *testing.T) {
					c, _, p := dispatchCPU(t, prog.src, cfg)
					err := c.Run(budget)
					f, ok := fault.Of(err)
					if !ok || f.Kind != fault.BudgetExceeded {
						t.Fatalf("err = %v, want budget-exceeded", err)
					}
					w := interp[prog.name][budget]
					if cfg.blk {
						w = block[prog.name][budget]
					}
					wantPC := p.MustLabel(w.pc)
					if c.InsnCount != w.insns || c.R[PC] != wantPC || f.PC != wantPC || c.R[0] != w.r0 {
						t.Errorf("budget fired at insns=%d pc=%#x (fault pc %#x) r0=%d, want insns=%d pc=%#x r0=%d",
							c.InsnCount, c.R[PC], f.PC, c.R[0], w.insns, wantPC, w.r0)
					}
				})
			}
		}
	}
}

// TestDispatchFaultCountdown: an armed arm.dispatch site fires on the n-th
// dispatch, where a dispatch is one instruction on the interpreter path and
// one block on the translated path. The fault's PC, the instructions retired
// before it, and the loop counter are pinned per configuration.
func TestDispatchFaultCountdown(t *testing.T) {
	defer fault.Reset()
	type want struct {
		insns uint64
		r0    uint32
		pc    string
	}
	interp := map[int]want{1: {0, 0, "_start"}, 2: {1, 0, "a"}, 5: {4, 1, "btoa"}, 38: {37, 9, "a"}}
	block := map[int]want{1: {0, 0, "_start"}, 2: {3, 1, "b"}, 5: {9, 2, "a"}, 38: {75, 19, "b"}}
	for _, cfg := range dispatchConfigs {
		for _, n := range []int{1, 2, 5, 38} {
			t.Run(fmt.Sprintf("%s/%d", cfg.name, n), func(t *testing.T) {
				c, _, p := dispatchCPU(t, twoBlockLoopSrc, cfg)
				if err := fault.ArmNth(SiteDispatch, fault.InternalError, n); err != nil {
					t.Fatal(err)
				}
				defer fault.Reset()
				err := c.Run(1000)
				f, ok := fault.Of(err)
				if !ok || f.Kind != fault.InternalError || f.Site != SiteDispatch {
					t.Fatalf("err = %v, want injected fault at %s", err, SiteDispatch)
				}
				w := interp[n]
				if cfg.blk {
					w = block[n]
				}
				wantPC := p.MustLabel(w.pc)
				if f.PC != wantPC || c.InsnCount != w.insns || c.R[0] != w.r0 {
					t.Errorf("fired at pc=%#x insns=%d r0=%d, want pc=%#x insns=%d r0=%d",
						f.PC, c.InsnCount, c.R[0], wantPC, w.insns, w.r0)
				}
			})
		}
	}
}

// assertSameState requires got to match a reference run ref in registers,
// flags, retired instructions and halt state.
func assertSameState(t *testing.T, ref, got *CPU) {
	t.Helper()
	if got.R != ref.R {
		t.Errorf("registers diverge:\nref %v\ngot %v", ref.R, got.R)
	}
	if got.N != ref.N || got.Z != ref.Z || got.C != ref.C || got.V != ref.V {
		t.Errorf("flags diverge")
	}
	if got.InsnCount != ref.InsnCount {
		t.Errorf("InsnCount = %d, want %d", got.InsnCount, ref.InsnCount)
	}
	if got.Halted != ref.Halted {
		t.Errorf("Halted = %v, want %v", got.Halted, ref.Halted)
	}
}

// TestChainBailsOnTaintIntroduction: a clean loop runs chained on the bare
// path until taint is introduced from outside the tracer on its last
// iteration — by a store's write observer in the middle of the block, or by
// the branch observer on the loop's final back edge. Either way the load
// that follows must be traced, exactly as in the always-instrumented run:
// the running block bails at the next step boundary, and the chain hands the
// next block back to the full gate.
func TestChainBailsOnTaintIntroduction(t *testing.T) {
	const src = `
_start:
	MOV R5, #8
loop:
	LDR R6, [R2]
	ADD R4, R4, R6
	STR R0, [R1]
	LDR R3, [R2]
	ADD R4, R4, R3
	SUB R5, R5, #1
	CMP R5, #0
	BNE loop
	HLT
`
	const dataAddr, srcAddr = 0x40000, 0x44000
	run := func(cfg dispatchConfig, viaBranch bool) *CPU {
		c, tr, p := dispatchCPU(t, src, cfg)
		c.R[1], c.R[2] = dataAddr, srcAddr
		stores, backEdges := 0, 0
		c.Mem.AddWriteNotify(func(addr, n uint32) {
			if addr>>12 == dataAddr>>12 {
				if stores++; stores == 8 && !viaBranch {
					tr.mt.Set32(srcAddr, taint.IMEI)
				}
			}
		})
		c.BranchFn = func(c *CPU, from, to uint32) {
			if to == p.MustLabel("loop") {
				if backEdges++; backEdges == 7 && viaBranch {
					tr.mt.Set32(srcAddr, taint.IMEI)
				}
			}
		}
		if err := c.Run(1000); err != nil {
			t.Fatal(err)
		}
		return c
	}
	for _, viaBranch := range []bool{false, true} {
		ref := run(dispatchConfig{name: "block+tracer", dec: true, blk: true, tracer: true}, viaBranch)
		got := run(dispatchConfig{name: "block+gate", dec: true, blk: true, tracer: true, gate: true}, viaBranch)
		assertSameState(t, ref, got)
		if got.RegTaint != ref.RegTaint || got.RegTaint[3] != taint.IMEI || got.RegTaint[4] != taint.IMEI {
			t.Errorf("viaBranch=%v: shadow registers diverge:\ngated   %v\nungated %v", viaBranch, got.RegTaint, ref.RegTaint)
		}
		if got.GateFastBlocks < 6 {
			t.Errorf("viaBranch=%v: GateFastBlocks = %d, want the clean iterations on the bare path", viaBranch, got.GateFastBlocks)
		}
	}
}

// TestChainBailsOnSelfModifyingStore: on its third iteration a chained loop
// patches an instruction later in its own block. The block must bail after
// the store and the rest of the iteration must run the new encoding.
func TestChainBailsOnSelfModifyingStore(t *testing.T) {
	const src = `
_start:
	MOV R5, #6
	MOV R6, #0
loop:
	ADD R6, R6, #1
	CMP R6, #3
	STREQ R2, [R1]
tgt:
	MOV R0, #7
	ADD R7, R7, R0
	SUB R5, R5, #1
	CMP R5, #0
	BNE loop
	HLT
`
	enc := binary.LittleEndian.Uint32(MustAssemble("MOV R0, #42", 0, nil).Code)
	var ref *CPU
	for _, cfg := range dispatchConfigs {
		t.Run(cfg.name, func(t *testing.T) {
			c, _, p := dispatchCPU(t, src, cfg)
			c.R[1], c.R[2] = p.MustLabel("tgt"), enc
			if err := c.Run(1000); err != nil {
				t.Fatal(err)
			}
			if c.R[7] != 2*7+4*42 {
				t.Errorf("R7 = %d, want %d (a stale instruction ran after the patch)", c.R[7], 2*7+4*42)
			}
			if ref == nil {
				ref = c
				return
			}
			assertSameState(t, ref, c)
		})
	}
}

// TestChainSeesHookOnSuccessor: a branch observer installs an address hook
// on a block that the running loop has already chained to. The hook must
// fire on the very next arrival, as it does on the interpreter.
func TestChainSeesHookOnSuccessor(t *testing.T) {
	const src = `
_start:
	MOV R5, #10
a:
	SUB R5, R5, #1
	B b
b:
	CMP R5, #0
	BNE a
	HLT
`
	var ref *CPU
	var refHits []uint32
	for _, cfg := range dispatchConfigs {
		t.Run(cfg.name, func(t *testing.T) {
			c, _, p := dispatchCPU(t, src, cfg)
			b := p.MustLabel("b")
			var hits []uint32
			branches := 0
			c.BranchFn = func(c *CPU, from, to uint32) {
				if to != b {
					return
				}
				if branches++; branches == 4 {
					c.Hook(b, func(c *CPU) HookAction {
						hits = append(hits, c.R[5])
						return ActionContinue
					})
				}
			}
			if err := c.Run(1000); err != nil {
				t.Fatal(err)
			}
			if len(hits) != 7 || hits[0] != 6 {
				t.Errorf("hook hits (R5 at each) = %v, want 7 hits starting at R5=6", hits)
			}
			if ref == nil {
				ref, refHits = c, hits
				return
			}
			assertSameState(t, ref, c)
			if fmt.Sprint(hits) != fmt.Sprint(refHits) {
				t.Errorf("hook hits = %v, want %v", hits, refHits)
			}
		})
	}
}

// TestChainStopsAtStop: RunUntil's stop address is the fall-through
// successor of a chained self-loop. A first run to HLT translates and links
// every block; on the second the run must end on the first arrival at the
// stop address, before the already-chained successor executes.
func TestChainStopsAtStop(t *testing.T) {
	const src = `
_start:
	MOV R5, #5
a:
	SUB R5, R5, #1
	CMP R5, #0
	BNE a
b:
	MOV R0, #1
	HLT
`
	for _, cfg := range dispatchConfigs {
		t.Run(cfg.name, func(t *testing.T) {
			c, _, p := dispatchCPU(t, src, cfg)
			if err := c.Run(1000); err != nil || !c.Halted {
				t.Fatalf("warm-up run: err=%v halted=%v", err, c.Halted)
			}
			c.Halted, c.R[0] = false, 0
			c.SetThumbPC(p.Base)
			start := c.InsnCount
			if err := c.RunUntil(p.MustLabel("b"), 1000); err != nil {
				t.Fatal(err)
			}
			if c.R[PC] != p.MustLabel("b") || c.R[0] != 0 || c.R[5] != 0 || c.Halted || c.InsnCount-start != 16 {
				t.Errorf("stopped at pc=%#x r0=%d r5=%d halted=%v insns=%d, want pc=b r0=0 r5=0 running insns=16",
					c.R[PC], c.R[0], c.R[5], c.Halted, c.InsnCount-start)
			}
		})
	}
}

// TestRunUntilHintReturnsEntry: the fused JNI bridge caches the entry block
// RunUntilHint returns; a matching hint comes back unchanged, and a stale
// one is replaced by the block actually executed.
func TestRunUntilHintReturnsEntry(t *testing.T) {
	const src = `
_start:
	MOV R0, #1
	BX LR
`
	c, _, p := dispatchCPU(t, src, dispatchConfigs[2])
	pad := uint32(0x20000)
	c.R[LR] = pad
	entry, err := c.RunUntilHint(pad, 100, nil)
	if err != nil || entry == nil || entry.key != p.Base {
		t.Fatalf("first run: entry=%v err=%v, want the block at _start", entry, err)
	}
	c.SetThumbPC(p.Base)
	again, err := c.RunUntilHint(pad, 100, entry)
	if err != nil || again != entry {
		t.Fatalf("hinted run: entry=%p err=%v, want the hint %p back", again, err, entry)
	}
	c.InvalidateBlocks()
	c.SetThumbPC(p.Base)
	fresh, err := c.RunUntilHint(pad, 100, entry)
	if err != nil || fresh == nil || fresh == entry || !fresh.valid {
		t.Fatalf("stale hint: entry=%p err=%v, want a fresh valid block", fresh, err)
	}
	if c.R[0] != 1 {
		t.Errorf("R0 = %d, want 1", c.R[0])
	}
}

// The spin kernel's loop shapes: an unconditional self-loop (hostile-spin)
// and a conditional self-loop that falls through into another self-loop,
// each in ARM and Thumb. The budgets put the watchdog inside the first loop
// and, for the conditional shape, across its exit and inside the second.
var spinPrograms = []struct {
	name, src string
	budgets   []uint64
}{
	{"arm-self", armSelfSrc, []uint64{100, 101}},
	{"thumb-self", ".thumb\n" + armSelfSrc, []uint64{100, 101}},
	{"arm-cond", armCondSrc, []uint64{60, 61, 90, 91, 100, 101}},
	{"thumb-cond", ".thumb\n" + armCondSrc, []uint64{60, 61, 90, 91, 100, 101}},
}

const (
	armSelfSrc = `
_start:
	MOV R0, #0
loop:
	ADD R0, R0, #1
	B loop
`
	armCondSrc = `
_start:
	MOV R0, #0
loop:
	ADD R0, R0, #1
	CMP R0, #30
	BNE loop
after:
	ADD R1, R1, #1
	B after
`
)

// spinConfigs are the configurations under which a spin block reaches the
// kernel: no tracer, the gate's clean fast path, and a static page pin.
var spinConfigs = []struct {
	name string
	cfg  dispatchConfig
	pin  bool
}{
	{"block", dispatchConfigs[2], false},
	{"gate", dispatchConfigs[4], false},
	{"pinned", dispatchConfigs[4], true},
}

// spinCPU is dispatchCPU entering at _start (a Thumb label carries bit 0),
// with the code page pinned when pin is set.
func spinCPU(t testing.TB, src string, cfg dispatchConfig, pin bool) (*CPU, *Program) {
	t.Helper()
	c, _, p := dispatchCPU(t, src, cfg)
	if pin {
		c.PinPage(p.Base >> 12)
	}
	c.SetThumbPC(p.MustLabel("_start"))
	return c, p
}

// spinState is the machine state a budget exit leaves behind.
type spinState struct {
	insns              uint64
	pc                 string // label
	thumb, checkHook   bool
	hits, fast, pinned uint64
	r0, r1             uint32
}

func (s spinState) String() string {
	return fmt.Sprintf("insns=%d pc=%s thumb=%v checkHook=%v hits=%d fast=%d pinned=%d r0=%d r1=%d",
		s.insns, s.pc, s.thumb, s.checkHook, s.hits, s.fast, s.pinned, s.r0, s.r1)
}

// labelAt names the label at pc (ignoring the Thumb bit), preferring the
// one that is not _start.
func labelAt(p *Program, pc uint32) string {
	name := ""
	for l, a := range p.Labels {
		if a&^1 == pc && (name == "" || name == "_start") {
			name = l
		}
	}
	return name
}

func stateOf(c *CPU, p *Program) spinState {
	return spinState{c.InsnCount, labelAt(p, c.R[PC]), c.Thumb, c.checkHook,
		c.BlockHits, c.GateFastBlocks, c.GatePinnedBlocks, c.R[0], c.R[1]}
}

// TestSpinKernelBudgetExact pins the state a budget exit leaves in every
// configuration that admits the spin kernel — retired instructions, PC and
// Thumb state, the re-armed hook check, and the block and gate counters the
// kernel settles in bulk. The expected values are those of the per-block
// chained dispatch loop, which has no kernel.
func TestSpinKernelBudgetExact(t *testing.T) {
	want := map[string]spinState{
		"arm-self/block/100":    {101, "loop", false, true, 48, 0, 0, 50, 0},
		"arm-self/block/101":    {103, "loop", false, true, 49, 0, 0, 51, 0},
		"arm-self/gate/100":     {101, "loop", false, true, 48, 50, 0, 50, 0},
		"arm-self/gate/101":     {103, "loop", false, true, 49, 51, 0, 51, 0},
		"arm-self/pinned/100":   {101, "loop", false, true, 48, 1, 49, 50, 0},
		"arm-self/pinned/101":   {103, "loop", false, true, 49, 1, 50, 51, 0},
		"thumb-self/block/100":  {101, "loop", true, true, 48, 0, 0, 50, 0},
		"thumb-self/block/101":  {103, "loop", true, true, 49, 0, 0, 51, 0},
		"thumb-self/gate/100":   {101, "loop", true, true, 48, 50, 0, 50, 0},
		"thumb-self/gate/101":   {103, "loop", true, true, 49, 51, 0, 51, 0},
		"thumb-self/pinned/100": {101, "loop", true, true, 48, 1, 49, 50, 0},
		"thumb-self/pinned/101": {103, "loop", true, true, 49, 1, 50, 51, 0},
		"arm-cond/block/60":     {61, "loop", false, true, 18, 0, 0, 20, 0},
		"arm-cond/block/61":     {64, "loop", false, true, 19, 0, 0, 21, 0},
		"arm-cond/block/90":     {91, "after", false, false, 28, 0, 0, 30, 0},
		"arm-cond/block/91":     {93, "after", false, true, 28, 0, 0, 30, 1},
		"arm-cond/block/100":    {101, "after", false, true, 32, 0, 0, 30, 5},
		"arm-cond/block/101":    {103, "after", false, true, 33, 0, 0, 30, 6},
		"arm-cond/gate/60":      {61, "loop", false, true, 18, 20, 0, 20, 0},
		"arm-cond/gate/61":      {64, "loop", false, true, 19, 21, 0, 21, 0},
		"arm-cond/gate/90":      {91, "after", false, false, 28, 30, 0, 30, 0},
		"arm-cond/gate/91":      {93, "after", false, true, 28, 31, 0, 30, 1},
		"arm-cond/gate/100":     {101, "after", false, true, 32, 35, 0, 30, 5},
		"arm-cond/gate/101":     {103, "after", false, true, 33, 36, 0, 30, 6},
		"arm-cond/pinned/60":    {61, "loop", false, true, 18, 1, 19, 20, 0},
		"arm-cond/pinned/61":    {64, "loop", false, true, 19, 1, 20, 21, 0},
		"arm-cond/pinned/90":    {91, "after", false, false, 28, 1, 29, 30, 0},
		"arm-cond/pinned/91":    {93, "after", false, true, 28, 1, 30, 30, 1},
		"arm-cond/pinned/100":   {101, "after", false, true, 32, 1, 34, 30, 5},
		"arm-cond/pinned/101":   {103, "after", false, true, 33, 1, 35, 30, 6},
		"thumb-cond/block/60":   {61, "loop", true, true, 18, 0, 0, 20, 0},
		"thumb-cond/block/61":   {64, "loop", true, true, 19, 0, 0, 21, 0},
		"thumb-cond/block/90":   {91, "after", true, false, 28, 0, 0, 30, 0},
		"thumb-cond/block/91":   {93, "after", true, true, 28, 0, 0, 30, 1},
		"thumb-cond/block/100":  {101, "after", true, true, 32, 0, 0, 30, 5},
		"thumb-cond/block/101":  {103, "after", true, true, 33, 0, 0, 30, 6},
		"thumb-cond/gate/60":    {61, "loop", true, true, 18, 20, 0, 20, 0},
		"thumb-cond/gate/61":    {64, "loop", true, true, 19, 21, 0, 21, 0},
		"thumb-cond/gate/90":    {91, "after", true, false, 28, 30, 0, 30, 0},
		"thumb-cond/gate/91":    {93, "after", true, true, 28, 31, 0, 30, 1},
		"thumb-cond/gate/100":   {101, "after", true, true, 32, 35, 0, 30, 5},
		"thumb-cond/gate/101":   {103, "after", true, true, 33, 36, 0, 30, 6},
		"thumb-cond/pinned/60":  {61, "loop", true, true, 18, 1, 19, 20, 0},
		"thumb-cond/pinned/61":  {64, "loop", true, true, 19, 1, 20, 21, 0},
		"thumb-cond/pinned/90":  {91, "after", true, false, 28, 1, 29, 30, 0},
		"thumb-cond/pinned/91":  {93, "after", true, true, 28, 1, 30, 30, 1},
		"thumb-cond/pinned/100": {101, "after", true, true, 32, 1, 34, 30, 5},
		"thumb-cond/pinned/101": {103, "after", true, true, 33, 1, 35, 30, 6},
	}
	for _, prog := range spinPrograms {
		for _, sc := range spinConfigs {
			for _, budget := range prog.budgets {
				name := fmt.Sprintf("%s/%s/%d", prog.name, sc.name, budget)
				t.Run(name, func(t *testing.T) {
					c, p := spinCPU(t, prog.src, sc.cfg, sc.pin)
					err := c.Run(budget)
					f, ok := fault.Of(err)
					if !ok || f.Kind != fault.BudgetExceeded {
						t.Fatalf("err = %v, want budget-exceeded", err)
					}
					if f.PC != c.R[PC] {
						t.Errorf("fault pc %#x, cpu pc %#x", f.PC, c.R[PC])
					}
					if got := stateOf(c, p); got != want[name] {
						t.Errorf("got  %v\nwant %v", got, want[name])
					}
				})
			}
		}
	}
}

// TestSpinFaultCountdown: an armed arm.dispatch site keeps the chain off the
// kernel, so the probe still counts every dispatch of a spin loop and fires
// at the same block and PC as the per-block loop.
func TestSpinFaultCountdown(t *testing.T) {
	defer fault.Reset()
	want := map[string]spinState{
		"arm-self/block/1":     {0, "_start", false, true, 0, 0, 0, 0, 0},
		"arm-self/block/2":     {3, "loop", false, true, 0, 0, 0, 1, 0},
		"arm-self/block/3":     {5, "loop", false, true, 0, 0, 0, 2, 0},
		"arm-self/block/30":    {59, "loop", false, true, 27, 0, 0, 29, 0},
		"arm-self/block/31":    {61, "loop", false, true, 28, 0, 0, 30, 0},
		"arm-self/block/33":    {65, "loop", false, true, 30, 0, 0, 32, 0},
		"arm-self/gate/1":      {0, "_start", false, true, 0, 0, 0, 0, 0},
		"arm-self/gate/2":      {3, "loop", false, true, 0, 1, 0, 1, 0},
		"arm-self/gate/3":      {5, "loop", false, true, 0, 2, 0, 2, 0},
		"arm-self/gate/30":     {59, "loop", false, true, 27, 29, 0, 29, 0},
		"arm-self/gate/31":     {61, "loop", false, true, 28, 30, 0, 30, 0},
		"arm-self/gate/33":     {65, "loop", false, true, 30, 32, 0, 32, 0},
		"arm-self/pinned/1":    {0, "_start", false, true, 0, 0, 0, 0, 0},
		"arm-self/pinned/2":    {3, "loop", false, true, 0, 1, 0, 1, 0},
		"arm-self/pinned/3":    {5, "loop", false, true, 0, 1, 1, 2, 0},
		"arm-self/pinned/30":   {59, "loop", false, true, 27, 1, 28, 29, 0},
		"arm-self/pinned/31":   {61, "loop", false, true, 28, 1, 29, 30, 0},
		"arm-self/pinned/33":   {65, "loop", false, true, 30, 1, 31, 32, 0},
		"thumb-self/block/1":   {0, "_start", true, true, 0, 0, 0, 0, 0},
		"thumb-self/block/2":   {3, "loop", true, true, 0, 0, 0, 1, 0},
		"thumb-self/block/3":   {5, "loop", true, true, 0, 0, 0, 2, 0},
		"thumb-self/block/30":  {59, "loop", true, true, 27, 0, 0, 29, 0},
		"thumb-self/block/31":  {61, "loop", true, true, 28, 0, 0, 30, 0},
		"thumb-self/block/33":  {65, "loop", true, true, 30, 0, 0, 32, 0},
		"thumb-self/gate/1":    {0, "_start", true, true, 0, 0, 0, 0, 0},
		"thumb-self/gate/2":    {3, "loop", true, true, 0, 1, 0, 1, 0},
		"thumb-self/gate/3":    {5, "loop", true, true, 0, 2, 0, 2, 0},
		"thumb-self/gate/30":   {59, "loop", true, true, 27, 29, 0, 29, 0},
		"thumb-self/gate/31":   {61, "loop", true, true, 28, 30, 0, 30, 0},
		"thumb-self/gate/33":   {65, "loop", true, true, 30, 32, 0, 32, 0},
		"thumb-self/pinned/1":  {0, "_start", true, true, 0, 0, 0, 0, 0},
		"thumb-self/pinned/2":  {3, "loop", true, true, 0, 1, 0, 1, 0},
		"thumb-self/pinned/3":  {5, "loop", true, true, 0, 1, 1, 2, 0},
		"thumb-self/pinned/30": {59, "loop", true, true, 27, 1, 28, 29, 0},
		"thumb-self/pinned/31": {61, "loop", true, true, 28, 1, 29, 30, 0},
		"thumb-self/pinned/33": {65, "loop", true, true, 30, 1, 31, 32, 0},
		"arm-cond/block/1":     {0, "_start", false, true, 0, 0, 0, 0, 0},
		"arm-cond/block/2":     {4, "loop", false, true, 0, 0, 0, 1, 0},
		"arm-cond/block/3":     {7, "loop", false, true, 0, 0, 0, 2, 0},
		"arm-cond/block/30":    {88, "loop", false, true, 27, 0, 0, 29, 0},
		"arm-cond/block/31":    {91, "after", false, false, 28, 0, 0, 30, 0},
		"arm-cond/block/33":    {95, "after", false, true, 29, 0, 0, 30, 2},
		"arm-cond/gate/1":      {0, "_start", false, true, 0, 0, 0, 0, 0},
		"arm-cond/gate/2":      {4, "loop", false, true, 0, 1, 0, 1, 0},
		"arm-cond/gate/3":      {7, "loop", false, true, 0, 2, 0, 2, 0},
		"arm-cond/gate/30":     {88, "loop", false, true, 27, 29, 0, 29, 0},
		"arm-cond/gate/31":     {91, "after", false, false, 28, 30, 0, 30, 0},
		"arm-cond/gate/33":     {95, "after", false, true, 29, 32, 0, 30, 2},
		"arm-cond/pinned/1":    {0, "_start", false, true, 0, 0, 0, 0, 0},
		"arm-cond/pinned/2":    {4, "loop", false, true, 0, 1, 0, 1, 0},
		"arm-cond/pinned/3":    {7, "loop", false, true, 0, 1, 1, 2, 0},
		"arm-cond/pinned/30":   {88, "loop", false, true, 27, 1, 28, 29, 0},
		"arm-cond/pinned/31":   {91, "after", false, false, 28, 1, 29, 30, 0},
		"arm-cond/pinned/33":   {95, "after", false, true, 29, 1, 31, 30, 2},
		"thumb-cond/block/1":   {0, "_start", true, true, 0, 0, 0, 0, 0},
		"thumb-cond/block/2":   {4, "loop", true, true, 0, 0, 0, 1, 0},
		"thumb-cond/block/3":   {7, "loop", true, true, 0, 0, 0, 2, 0},
		"thumb-cond/block/30":  {88, "loop", true, true, 27, 0, 0, 29, 0},
		"thumb-cond/block/31":  {91, "after", true, false, 28, 0, 0, 30, 0},
		"thumb-cond/block/33":  {95, "after", true, true, 29, 0, 0, 30, 2},
		"thumb-cond/gate/1":    {0, "_start", true, true, 0, 0, 0, 0, 0},
		"thumb-cond/gate/2":    {4, "loop", true, true, 0, 1, 0, 1, 0},
		"thumb-cond/gate/3":    {7, "loop", true, true, 0, 2, 0, 2, 0},
		"thumb-cond/gate/30":   {88, "loop", true, true, 27, 29, 0, 29, 0},
		"thumb-cond/gate/31":   {91, "after", true, false, 28, 30, 0, 30, 0},
		"thumb-cond/gate/33":   {95, "after", true, true, 29, 32, 0, 30, 2},
		"thumb-cond/pinned/1":  {0, "_start", true, true, 0, 0, 0, 0, 0},
		"thumb-cond/pinned/2":  {4, "loop", true, true, 0, 1, 0, 1, 0},
		"thumb-cond/pinned/3":  {7, "loop", true, true, 0, 1, 1, 2, 0},
		"thumb-cond/pinned/30": {88, "loop", true, true, 27, 1, 28, 29, 0},
		"thumb-cond/pinned/31": {91, "after", true, false, 28, 1, 29, 30, 0},
		"thumb-cond/pinned/33": {95, "after", true, true, 29, 1, 31, 30, 2},
	}
	for _, prog := range spinPrograms {
		for _, sc := range spinConfigs {
			for _, n := range []int{1, 2, 3, 30, 31, 33} {
				name := fmt.Sprintf("%s/%s/%d", prog.name, sc.name, n)
				t.Run(name, func(t *testing.T) {
					c, p := spinCPU(t, prog.src, sc.cfg, sc.pin)
					if err := fault.ArmNth(SiteDispatch, fault.InternalError, n); err != nil {
						t.Fatal(err)
					}
					defer fault.Reset()
					err := c.Run(1000)
					f, ok := fault.Of(err)
					if !ok || f.Kind != fault.InternalError || f.Site != SiteDispatch {
						t.Fatalf("err = %v, want injected fault at %s", err, SiteDispatch)
					}
					if f.PC != c.R[PC] {
						t.Errorf("fault pc %#x, cpu pc %#x", f.PC, c.R[PC])
					}
					if got := stateOf(c, p); got != want[name] {
						t.Errorf("got  %v\nwant %v", got, want[name])
					}
				})
			}
		}
	}
}

// TestSpinBranchWatchSeesBackEdges: a branch observer whose window covers
// the loop head keeps a spin block off the kernel. It receives every back
// edge, and the budget exit is unchanged.
func TestSpinBranchWatchSeesBackEdges(t *testing.T) {
	for _, prog := range spinPrograms[:2] {
		for _, sc := range spinConfigs {
			t.Run(prog.name+"/"+sc.name, func(t *testing.T) {
				c, p := spinCPU(t, prog.src, sc.cfg, sc.pin)
				head := p.MustLabel("loop") &^ 1
				c.SetBranchWatch(head, head)
				edges := uint32(0)
				c.BranchFn = func(c *CPU, from, to uint32) {
					if to != head {
						t.Fatalf("event outside the watch window: %#x -> %#x", from, to)
					}
					edges++
				}
				if f, ok := fault.Of(c.Run(1001)); !ok || f.Kind != fault.BudgetExceeded {
					t.Fatalf("err = %v, want budget-exceeded", f)
				}
				// Every ADD is followed by its B, so each iteration — the
				// prologue block's included — emits one event to the head.
				if edges != c.R[0] || c.R[0] != 501 {
					t.Errorf("branch events = %d, R0 = %d, want 501 each", edges, c.R[0])
				}
			})
		}
	}
}

// TestSpinImpureBodyStaysChained: a self-loop whose body loads or stores is
// not a spin block; it keeps the per-block chained path and its exact
// budget exit.
func TestSpinImpureBodyStaysChained(t *testing.T) {
	want := map[string]spinState{
		"LDR/block/100":  {101, "loop", false, true, 31, 0, 0, 33, 0},
		"LDR/block/101":  {104, "loop", false, true, 32, 0, 0, 34, 0},
		"LDR/gate/100":   {101, "loop", false, true, 31, 33, 0, 33, 0},
		"LDR/gate/101":   {104, "loop", false, true, 32, 34, 0, 34, 0},
		"LDR/pinned/100": {101, "loop", false, true, 31, 1, 32, 33, 0},
		"LDR/pinned/101": {104, "loop", false, true, 32, 1, 33, 34, 0},
		"STR/block/100":  {101, "loop", false, true, 31, 0, 0, 33, 0},
		"STR/block/101":  {104, "loop", false, true, 32, 0, 0, 34, 0},
		"STR/gate/100":   {101, "loop", false, true, 31, 33, 0, 33, 0},
		"STR/gate/101":   {104, "loop", false, true, 32, 34, 0, 34, 0},
		"STR/pinned/100": {101, "loop", false, true, 31, 1, 32, 33, 0},
		"STR/pinned/101": {104, "loop", false, true, 32, 1, 33, 34, 0},
	}
	for _, body := range []string{"LDR R1, [R2]", "STR R1, [R2]"} {
		src := "_start:\n\tMOV R0, #0\n\tMOVW R2, #0x8000\nloop:\n\t" + body + "\n\tADD R0, R0, #1\n\tB loop\n"
		for _, sc := range spinConfigs {
			for _, budget := range []uint64{100, 101} {
				name := fmt.Sprintf("%s/%s/%d", body[:3], sc.name, budget)
				t.Run(name, func(t *testing.T) {
					c, p := spinCPU(t, src, sc.cfg, sc.pin)
					err := c.Run(budget)
					if f, ok := fault.Of(err); !ok || f.Kind != fault.BudgetExceeded {
						t.Fatalf("err = %v, want budget-exceeded", err)
					}
					if b := c.blockCache[p.MustLabel("loop")]; b == nil || b.spin {
						t.Fatalf("loop block = %+v, want a translated non-spin block", b)
					}
					if got := stateOf(c, p); got != want[name] {
						t.Errorf("got  %v\nwant %v", got, want[name])
					}
				})
			}
		}
	}
}

// BenchmarkDispatch runs the two loop shapes until the budget fires — the
// hostile-spin self-loop (a two-instruction block that branches to itself)
// and the two-block loop of CF-Bench-style code — on each block-engine
// configuration, with a branch observer watching a window the loop never
// enters (multilevel hooking's steady state in clean native code).
func BenchmarkDispatch(b *testing.B) {
	const budget = 1 << 16
	for _, prog := range []struct{ name, src string }{
		{"self", selfLoopSrc}, {"two", twoBlockLoopSrc},
	} {
		for _, cfg := range dispatchConfigs {
			if !cfg.blk {
				continue
			}
			b.Run(prog.name+"/"+cfg.name, func(b *testing.B) {
				c, _, p := dispatchCPU(b, prog.src, cfg)
				c.BranchFn = func(*CPU, uint32, uint32) {}
				c.SetBranchWatch(0x1000_0000, 0x1000_ffff)
				start := c.InsnCount
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					c.SetThumbPC(p.Base)
					if f, ok := fault.Of(c.Run(budget)); !ok || f.Kind != fault.BudgetExceeded {
						b.Fatalf("want budget-exceeded, got %v", f)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(c.InsnCount-start), "ns/insn")
			})
		}
	}
}
