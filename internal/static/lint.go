package static

import (
	"fmt"
	"sort"

	"repro/internal/dex"
	"repro/internal/dvm"
	"repro/internal/fault"
)

// The JNI lint checks three contract classes over crossing sites, reporting
// violations as typed fault diagnostics (Layer "static") without aborting
// the run — static findings are advisory, the dynamic engine still enforces
// the contract at runtime.
//
//  1. Registration: every declared native method must be bound to an address
//     inside the loaded native code range, and every invoke of a native
//     method must pass the argument count its shorty declares.
//  2. Get/Release pairing: a native function that obtains a pinned handle
//     (GetStringUTFChars) on some path without releasing it before return.
//  3. Use-after-release: a register that may hold a released handle flowing
//     into a later call's pointer argument.
//
// Checks 2 and 3 are a forward may-dataflow over the native function body
// using the shared worklist solver: one "handle site" per Get call, with
// facts tracking which registers may hold which site's handle and whether
// the site has been released on some path.

// handleGetCalls obtain a pinned native pointer that must be paired with the
// named release call.
var handleGetCalls = map[string]string{
	"GetStringUTFChars": "ReleaseStringUTFChars",
}

// handleReleaseCalls is the reverse view: release name -> true.
var handleReleaseCalls = map[string]bool{
	"ReleaseStringUTFChars": true,
}

// Lint runs all static JNI checks over the VM's registered classes and the
// native CFGs. Findings are sorted by rendered text for determinism.
func Lint(vm *dvm.VM, cfgs []*NativeCFG) []*fault.Fault {
	var out []*fault.Fault
	out = append(out, lintRegistration(vm)...)
	for _, cfg := range cfgs {
		for _, entry := range sortedEntries(cfg) {
			out = append(out, lintHandles(cfg, cfg.Funcs[entry])...)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Error() < out[j].Error() })
	return out
}

func sortedEntries(cfg *NativeCFG) []uint32 {
	var entries []uint32
	for e := range cfg.Funcs {
		entries = append(entries, e)
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i] < entries[j] })
	return entries
}

// lintRegistration checks native-method bindings and every call site that
// statically resolves to a native method for arity/signature mismatches.
func lintRegistration(vm *dvm.VM) []*fault.Fault {
	var out []*fault.Fault
	lo, hi := vm.NativeCodeRange()
	for _, name := range vm.Classes() {
		c, ok := vm.Class(name)
		if !ok {
			continue
		}
		for _, m := range c.Methods {
			if m.IsNative() {
				addr := m.NativeAddr &^ 1
				if m.NativeAddr == 0 {
					out = append(out, staticFault(m, "native method never registered"))
				} else if addr < lo || addr >= hi {
					out = append(out, staticFault(m,
						fmt.Sprintf("native method bound outside loaded code: %#x not in [%#x,%#x)", addr, lo, hi)))
				}
			}
			if len(m.Insns) == 0 {
				continue
			}
			for _, site := range NewMethodCFG(m).CallSites() {
				insn := site.Insn
				tc, ok := vm.Class(insn.ClassName)
				if !ok {
					continue
				}
				t, ok := tc.Method(insn.MemberName)
				if !ok || !t.IsNative() {
					continue
				}
				if insn.Shorty != "" && insn.Shorty != t.Shorty {
					out = append(out, staticFault(m, fmt.Sprintf(
						"call at pc %d: shorty %q does not match native %s shorty %q",
						site.PC, insn.Shorty, t.FullName(), t.Shorty)))
					continue
				}
				if want := t.InsSize(); len(insn.Args) != want {
					out = append(out, staticFault(m, fmt.Sprintf(
						"call at pc %d: %d argument registers for native %s expecting %d",
						site.PC, len(insn.Args), t.FullName(), want)))
				}
			}
		}
	}
	return out
}

func staticFault(m *dex.Method, detail string) *fault.Fault {
	return &fault.Fault{Kind: fault.JNIMisuse, Layer: "static", Method: m.FullName(), Detail: detail}
}

// handleFacts is the dataflow domain for one function: per Get site,
// 16 register bits ("register may hold site's handle") plus one released
// bit ("site may have been released on some path").
const (
	bitsPerSite = 17
	releasedBit = 16
)

// lintHandles runs the Get/Release pairing analysis over one native function.
func lintHandles(cfg *NativeCFG, fn *NativeFunc) []*fault.Fault {
	// Collect Get sites in address order.
	var sites []uint32
	siteOf := make(map[uint32]int)
	for _, addr := range fn.Body {
		insn := cfg.Insns[addr]
		if insn != nil && handleGetCalls[insn.CallName] != "" {
			siteOf[addr] = len(sites)
			sites = append(sites, addr)
		}
	}
	if len(sites) == 0 {
		return nil
	}

	g := newFuncGraph(cfg, fn)
	nbits := len(sites) * bitsPerSite
	sol := Solve(g, Problem{
		Dir:      Forward,
		Join:     May,
		Bits:     nbits,
		Boundary: func(n int) BitSet { return NewBitSet(nbits) },
		Transfer: func(n int, in BitSet) BitSet {
			out := in.Copy()
			insn := cfg.Insns[g.addr(n)]
			if insn == nil {
				return out
			}
			applyHandleTransfer(out, insn, g.addr(n), siteOf, len(sites))
			return out
		},
	})

	var out []*fault.Fault
	seen := make(map[string]bool)
	report := func(detail string) {
		if !seen[detail] {
			seen[detail] = true
			out = append(out, &fault.Fault{
				Kind: fault.JNIMisuse, Layer: "static",
				Method: fn.Name, Detail: detail,
			})
		}
	}
	// Solve returns out-sets; the use and return checks need the facts on
	// entry to the node, before its own transfer clobbers registers.
	inOf := func(n int) BitSet {
		in := NewBitSet(nbits)
		for _, p := range g.Preds(n) {
			in.Union(sol[p])
		}
		return in
	}
	for n := 0; n < g.NumNodes(); n++ {
		addr := g.addr(n)
		insn := cfg.Insns[addr]
		if insn == nil {
			continue
		}
		in := inOf(n)
		// Use-after-release: a call consuming a register that may hold a
		// handle whose site may already be released.
		if insn.CallName != "" && !handleReleaseCalls[insn.CallName] {
			for s := range sites {
				if !in.Get(s*bitsPerSite + releasedBit) {
					continue
				}
				for reg := 0; reg < 4; reg++ { // argument registers r0-r3
					if in.Get(s*bitsPerSite + reg) {
						report(fmt.Sprintf(
							"handle from GetStringUTFChars@%#x may be used by %s@%#x after release",
							sites[s], insn.CallName, addr))
					}
				}
			}
		}
		// Unreleased handle outstanding at a return point.
		if insn.Return {
			for s := range sites {
				live := false
				for reg := 0; reg < 16; reg++ {
					if in.Get(s*bitsPerSite + reg) {
						live = true
						break
					}
				}
				if live && !in.Get(s*bitsPerSite+releasedBit) {
					report(fmt.Sprintf(
						"handle from GetStringUTFChars@%#x may be unreleased at return@%#x",
						sites[s], addr))
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Detail < out[j].Detail })
	return out
}

// applyHandleTransfer mutates the fact set across one instruction.
func applyHandleTransfer(f BitSet, insn *NativeInsn, addr uint32, siteOf map[uint32]int, nsites int) {
	killReg := func(reg int) {
		for s := 0; s < nsites; s++ {
			f.Clear(s*bitsPerSite + reg)
		}
	}
	switch {
	case insn.CallName != "" || insn.CallLocal != 0:
		if handleReleaseCalls[insn.CallName] {
			// ReleaseStringUTFChars(env, str, chars): the handle is in r2.
			for s := 0; s < nsites; s++ {
				if f.Get(s*bitsPerSite + 2) {
					f.Set(s*bitsPerSite + releasedBit)
				}
			}
		}
		// Calls clobber the AAPCS caller-saved registers.
		for _, reg := range []int{0, 1, 2, 3, 12, 14} {
			killReg(reg)
		}
		if s, ok := siteOf[addr]; ok {
			// The Get call's result register now holds the site's handle.
			f.Set(s*bitsPerSite + 0)
		}
	default:
		if rd := destReg(insn); rd >= 0 && rd < 16 {
			if src := copySrcReg(insn); src >= 0 && src < 16 {
				// Register copy propagates may-hold facts.
				for s := 0; s < nsites; s++ {
					if f.Get(s*bitsPerSite + src) {
						killReg(rd)
						f.Set(s*bitsPerSite + rd)
						return
					}
				}
			}
			killReg(rd)
		}
	}
}
