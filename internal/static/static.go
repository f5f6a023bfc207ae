// Package static implements the whole-program pre-analysis that runs before
// the dynamic engine boots: unified control-flow graphs over Dalvik bytecode
// and ARM/Thumb native code, a generic worklist dataflow solver shared by
// both ISAs, a taint-reachability pass that pins methods and native pages
// which can never transitively touch a source, sink, or JNI crossing, and a
// static JNI lint over crossing sites.
//
// Pins are a pure precision optimisation: a pinned Dalvik method executes
// its clean translation variant without the per-frame gate probe, and a
// pinned native page's blocks skip the taint-liveness check. Soundness does
// not rest on the pin computation — the runtime keeps its fallbacks (pinned
// ARM blocks still honour pending gate-bail edges, pinned frames still
// honour translation epochs), so a wrong pin costs speed, never a missed
// flow.
package static

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"unicode"

	"repro/internal/dex"
	"repro/internal/dvm"
	"repro/internal/fault"
	"repro/internal/kernel"
)

// Level selects how much of the pre-analysis is applied to a run.
type Level int

const (
	// Off disables the pre-analysis entirely.
	Off Level = iota
	// LintOnly runs CFG construction and the JNI lint, reporting findings
	// without influencing execution.
	LintOnly
	// PinLevel additionally applies taint-reachability pins to the dynamic
	// engines.
	PinLevel
)

// ParseLevel maps the -static flag values.
func ParseLevel(s string) (Level, error) {
	switch s {
	case "off":
		return Off, nil
	case "lint":
		return LintOnly, nil
	case "pin":
		return PinLevel, nil
	}
	return Off, fmt.Errorf("static: unknown level %q (want off|lint|pin)", s)
}

func (l Level) String() string {
	switch l {
	case LintOnly:
		return "lint"
	case PinLevel:
		return "pin"
	}
	return "off"
}

// Result is the outcome of one pre-analysis over a booted (but not yet run)
// system: counts for reporting, the lint findings, the reach sets consumed
// by cross-validation, and the pin sets applied by Apply.
type Result struct {
	Methods       int // interpreted Dalvik methods
	PinnedMethods int // methods proven unable to touch taint
	NativeFuncs   int // native functions discovered by the CFG traversal
	NativePages   int // pages of loaded app native code
	PinnedPages   int // pages proven taint-free
	TaintFree     bool

	Findings []*fault.Fault // static JNI lint diagnostics

	// Reach sets for dynamic cross-validation: labels the flow log can emit.
	Sources       map[string]bool // reachable Java source methods (full names)
	Sinks         map[string]bool // reachable sink labels ("Network.send")
	Crossings     map[string]bool // reachable native-method simple names
	CrossingAddrs map[uint32]bool // reachable native-method entry addresses
	NativeCallees map[string]bool // extern callees reachable in native code

	// Unresolved means some reachable node had an indirect transfer the
	// analysis could not resolve; cross-validation of native events is
	// skipped (anything could run) but Java-side checks still hold.
	Unresolved bool

	pinMethods []*dex.Method
	// pinNames are the full names of pinMethods, the pointer-independent form
	// ReApply uses to re-seed pins on a System that re-installed the same dex.
	pinNames []string
	pinPages []uint32

	// seedMethods are the reachable native methods: the cross-ISA call graph
	// already proves these crossings can execute, so Apply seeds them into the
	// VM's trace-fusion layer and the first crossing fuses without waiting for
	// the heat threshold. seedNames is the ReApply form.
	seedMethods []*dex.Method
	seedNames   []string

	// rehydrated marks a Result rebuilt from its Portable form: the
	// pointer-keyed sets are gone, so Apply routes through ReApply.
	rehydrated bool
}

// Analyze runs CFG construction, the JNI lint, and the taint-reachability
// pass over the VM's registered classes and loaded libraries. entryClass and
// entryMethod name the app's entry point for the reachability sweep.
func Analyze(vm *dvm.VM, entryClass, entryMethod string) *Result {
	r := &Result{
		Sources:       make(map[string]bool),
		Sinks:         make(map[string]bool),
		Crossings:     make(map[string]bool),
		CrossingAddrs: make(map[uint32]bool),
		NativeCallees: make(map[string]bool),
	}

	var cfgs []*NativeCFG
	for _, lib := range vm.NativeLibs() {
		cfgs = append(cfgs, LibCFG(vm, lib))
	}

	r.Findings = Lint(vm, cfgs)

	g := buildCallGraph(vm, cfgs)
	var entry *dex.Method
	if c, ok := vm.Class(entryClass); ok {
		if m, ok := c.Method(entryMethod); ok {
			entry = m
		}
	}
	reach := analyzeReach(g, entry)
	r.TaintFree = reach.taintFree

	for i, n := range g.nodes {
		if n.fn != nil {
			r.NativeFuncs++
		}
		if n.m != nil && !n.m.IsNative() && n.m.Builtin == nil && len(n.m.Insns) > 0 {
			r.Methods++
		}
		if !reach.reachable.Get(i) {
			continue
		}
		if n.m != nil {
			if n.isSource {
				r.Sources[n.m.FullName()] = true
			}
			if n.isSink {
				r.Sinks[leakLabel(n.m)] = true
			}
			if n.m.IsNative() {
				r.Crossings[n.m.Name] = true
				r.CrossingAddrs[n.m.NativeAddr] = true
				r.seedMethods = append(r.seedMethods, n.m)
				r.seedNames = append(r.seedNames, n.m.FullName())
			}
		}
		if n.fn != nil {
			for _, callee := range n.fn.Calls {
				r.NativeCallees[callee] = true
			}
		}
		if n.unresolved {
			r.Unresolved = true
		}
	}

	for i, n := range g.nodes {
		if reach.pinnable(i) {
			r.pinMethods = append(r.pinMethods, n.m)
			r.PinnedMethods++
		}
	}
	sort.Slice(r.pinMethods, func(i, j int) bool {
		return r.pinMethods[i].FullName() < r.pinMethods[j].FullName()
	})
	for _, m := range r.pinMethods {
		r.pinNames = append(r.pinNames, m.FullName())
	}

	for _, lib := range vm.NativeLibs() {
		end := lib.Prog.Base + lib.Prog.Size()
		for pn := lib.Prog.Base >> 12; pn <= (end-1)>>12; pn++ {
			r.NativePages++
			if r.TaintFree {
				r.pinPages = append(r.pinPages, pn)
			}
		}
	}
	r.PinnedPages = len(r.pinPages)
	return r
}

// progContains reports whether addr lies inside the library image.
// LibCFG builds one library's NativeCFG, rooted at every bound native
// method whose implementation lives inside the library's program image.
// Summary synthesis reuses this to get the same CFG shape the lint and
// reachability passes see.
func LibCFG(vm *dvm.VM, lib dvm.LoadedLib) *NativeCFG {
	resolve := buildResolver(vm)
	entries := make(map[uint32]string)
	for _, name := range vm.Classes() {
		c, ok := vm.Class(name)
		if !ok {
			continue
		}
		for _, m := range c.Methods {
			if m.IsNative() && m.NativeAddr != 0 && progContains(lib, m.NativeAddr&^1) {
				entries[m.NativeAddr] = m.FullName()
			}
		}
	}
	return BuildNativeCFG(lib.Prog, entries, resolve)
}

func progContains(lib dvm.LoadedLib, addr uint32) bool {
	return addr >= lib.Prog.Base && addr < lib.Prog.Base+lib.Prog.Size()
}

// buildResolver resolves an address to a symbol name for the CFG traversal
// through the VM's own reverse tables: libdvm internals and JNI env
// functions first, then the JNIEnv table itself, then libc/libm.
func buildResolver(vm *dvm.VM) func(uint32) (string, bool) {
	return func(addr uint32) (string, bool) {
		addr &^= 1
		if name, ok := vm.InternalName(addr); ok {
			return name, true
		}
		if addr == kernel.JNIEnvBase {
			return "JNIEnv", true
		}
		if vm.Libc != nil {
			return vm.Libc.NameAt(addr)
		}
		return "", false
	}
}

// Apply seeds the dynamic engines with the pin sets: pinned methods run
// their clean translation variant, pinned pages skip the block-level gate.
// Pins are keyed by *dex.Method and page number on the target System, so a
// fresh System (degradation retry) must call Apply again.
func (r *Result) Apply(vm *dvm.VM) {
	if r.rehydrated {
		// Rebuilt from the artifact store: no pointer sets exist, and the
		// caller's System is a fresh install of a digest-identical app, which
		// is exactly the contract ReApply's name resolution covers.
		r.ReApply(vm)
		return
	}
	for _, m := range r.pinMethods {
		vm.PinClean(m)
	}
	for _, pn := range r.pinPages {
		vm.CPU.PinPage(pn)
	}
	for _, m := range r.seedMethods {
		vm.SeedFusion(m)
	}
}

// ReApply re-seeds the pin sets on a System that installed the same app
// again (identical dex digest, e.g. a snapshot-restored fork-server clone).
// Method pins are resolved by full name — the re-install built fresh
// *dex.Method values, so the pointer-keyed sets in r are useless — and page
// pins reapply directly, because an identical install at a restored nextLibBase
// lands native code on identical pages. Unresolvable names are skipped: a
// missing pin costs speed, never soundness.
func (r *Result) ReApply(vm *dvm.VM) {
	for _, full := range r.pinNames {
		if m := methodByFullName(vm, full); m != nil {
			vm.PinClean(m)
		}
	}
	for _, pn := range r.pinPages {
		vm.CPU.PinPage(pn)
	}
	for _, full := range r.seedNames {
		if m := methodByFullName(vm, full); m != nil {
			vm.SeedFusion(m)
		}
	}
}

// methodByFullName resolves "Lpkg/Cls;.method" on the VM's class table;
// unresolvable names return nil (a missing pin or seed costs speed, never
// soundness).
func methodByFullName(vm *dvm.VM, full string) *dex.Method {
	i := strings.Index(full, ";.")
	if i < 0 {
		return nil
	}
	c, ok := vm.Class(full[:i+1])
	if !ok {
		return nil
	}
	if m, ok := c.Method(full[i+2:]); ok {
		return m
	}
	return nil
}

// CrossValidate checks every flow-log event against the static reach sets
// and returns one message per violation: a dynamic event that static
// analysis claimed unreachable is a soundness bug in the pre-analysis.
func (r *Result) CrossValidate(lines []string) []string {
	var out []string
	violate := func(format string, args ...interface{}) {
		out = append(out, fmt.Sprintf(format, args...))
	}
	// RegisterNatives re-registration moves a method's entry address after the
	// pre-analysis ran: the address-keyed check (SourceHandler) and the native
	// callee reach sets (SinkHandler, TrustCallHandler) are void from that
	// point on — code outside the static entry set may legitimately run.
	// Name-keyed Java-side checks still hold: rebinding cannot change the
	// declared method set.
	// Both the RegisterNatives event line and the StaticPinVoid diagnostic
	// the analyzer logs beside it mark the relaxation; either alone suffices,
	// so a future change to one line's shape cannot silently re-tighten the
	// check.
	rebound := false
	for _, line := range lines {
		if strings.HasPrefix(line, "RegisterNatives ") || strings.HasPrefix(line, "StaticPinVoid ") {
			rebound = true
			break
		}
	}
	for _, line := range lines {
		switch {
		case strings.HasPrefix(line, "JavaSink["):
			name := bracketArg(line, "JavaSink[")
			if !r.Sinks[name] {
				violate("dynamic Java sink %q not in static sink reach set", name)
			}
		case strings.HasPrefix(line, "SinkHandler["):
			name := bracketArg(line, "SinkHandler[")
			if !rebound && !r.Unresolved && !r.NativeCallees[name] {
				violate("dynamic native sink %q not in static callee reach set", name)
			}
		case strings.HasPrefix(line, "TrustCallHandler["):
			name := bracketArg(line, "TrustCallHandler[")
			if !rebound && !r.Unresolved && !r.NativeCallees[name] {
				violate("dynamic trust call %q not in static callee reach set", name)
			}
		case strings.HasPrefix(line, "SourceHandler @0x"):
			// The JNI-entry source policy fires once per crossing; its
			// address must be a reachable native method entry.
			if addr, ok := scanHex32(line[len("SourceHandler @0x"):]); ok {
				if !rebound && !r.CrossingAddrs[addr] {
					violate("dynamic JNI entry @%#x not in static crossing reach set", addr)
				}
			}
		case strings.HasPrefix(line, "dvmCallJNIMethod: "):
			name := fieldArg(line, "name=")
			if name != "" && !r.Crossings[name] {
				violate("dynamic JNI call %q not in static crossing reach set", name)
			}
		case strings.HasPrefix(line, "JNIReturn "):
			name := strings.TrimPrefix(line, "JNIReturn ")
			if i := strings.IndexByte(name, ' '); i >= 0 {
				name = name[:i]
			}
			if name != "" && !r.Crossings[name] {
				violate("dynamic JNI return %q not in static crossing reach set", name)
			}
		}
	}
	return out
}

// scanHex32 parses the hex number leading s exactly as fmt's %x verb scans
// one into a uint32: white space before it is skipped (a newline fails), the
// longest run of hex digits is the token, trailing text is ignored, and an
// empty or out-of-range token fails.
func scanHex32(s string) (uint32, bool) {
	t := strings.TrimLeftFunc(s, unicode.IsSpace)
	if strings.ContainsRune(s[:len(s)-len(t)], '\n') {
		return 0, false
	}
	n := 0
	for n < len(t) && isHexDigit(t[n]) {
		n++
	}
	v, err := strconv.ParseUint(t[:n], 16, 32)
	return uint32(v), err == nil
}

func isHexDigit(b byte) bool {
	return '0' <= b && b <= '9' || 'a' <= b && b <= 'f' || 'A' <= b && b <= 'F'
}

// bracketArg extracts NAME from "Prefix[NAME]...".
func bracketArg(line, prefix string) string {
	rest := strings.TrimPrefix(line, prefix)
	if i := strings.IndexByte(rest, ']'); i >= 0 {
		return rest[:i]
	}
	return rest
}

// fieldArg extracts VALUE from "... key=VALUE ..." (space-terminated).
func fieldArg(line, key string) string {
	i := strings.Index(line, key)
	if i < 0 {
		return ""
	}
	rest := line[i+len(key):]
	if j := strings.IndexByte(rest, ' '); j >= 0 {
		return rest[:j]
	}
	return rest
}

// Summary renders the one-line report used by cmd/ndroid and flow logs.
func (r *Result) Summary() string {
	return fmt.Sprintf("static: %d/%d methods pinned, %d/%d pages pinned, %d lint findings, taint-free=%v",
		r.PinnedMethods, r.Methods, r.PinnedPages, r.NativePages, len(r.Findings), r.TaintFree)
}
