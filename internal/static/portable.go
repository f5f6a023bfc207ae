package static

import (
	"sort"

	"repro/internal/fault"
)

// Portable is the serializable form of a Result for the content-addressed
// artifact store. Pointer-keyed pin sets dehydrate to their name-based forms
// (the same forms ReApply already uses for snapshot-restored Systems), maps
// to sorted slices, and lint faults to fault.Portable — so a rehydrated
// Result applies pins, cross-validates flow logs, and renders summaries
// identically to the original.
type Portable struct {
	Methods       int  `json:"methods"`
	PinnedMethods int  `json:"pinned_methods"`
	NativeFuncs   int  `json:"native_funcs"`
	NativePages   int  `json:"native_pages"`
	PinnedPages   int  `json:"pinned_pages"`
	TaintFree     bool `json:"taint_free"`
	Unresolved    bool `json:"unresolved,omitempty"`

	Findings []*fault.Portable `json:"findings,omitempty"`

	Sources       []string `json:"sources,omitempty"`
	Sinks         []string `json:"sinks,omitempty"`
	Crossings     []string `json:"crossings,omitempty"`
	CrossingAddrs []uint32 `json:"crossing_addrs,omitempty"`
	NativeCallees []string `json:"native_callees,omitempty"`

	PinNames  []string `json:"pin_names,omitempty"`
	PinPages  []uint32 `json:"pin_pages,omitempty"`
	SeedNames []string `json:"seed_names,omitempty"`
}

func sortedKeys(m map[string]bool) []string {
	if len(m) == 0 {
		return nil
	}
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Portable dehydrates the result.
func (r *Result) Portable() *Portable {
	p := &Portable{
		Methods: r.Methods, PinnedMethods: r.PinnedMethods,
		NativeFuncs: r.NativeFuncs, NativePages: r.NativePages,
		PinnedPages: r.PinnedPages, TaintFree: r.TaintFree,
		Unresolved:    r.Unresolved,
		Sources:       sortedKeys(r.Sources),
		Sinks:         sortedKeys(r.Sinks),
		Crossings:     sortedKeys(r.Crossings),
		NativeCallees: sortedKeys(r.NativeCallees),
		PinNames:      append([]string(nil), r.pinNames...),
		PinPages:      append([]uint32(nil), r.pinPages...),
		SeedNames:     append([]string(nil), r.seedNames...),
	}
	for addr := range r.CrossingAddrs {
		p.CrossingAddrs = append(p.CrossingAddrs, addr)
	}
	sort.Slice(p.CrossingAddrs, func(i, j int) bool { return p.CrossingAddrs[i] < p.CrossingAddrs[j] })
	for _, f := range r.Findings {
		p.Findings = append(p.Findings, f.Portable())
	}
	return p
}

// Rehydrate rebuilds a Result from its portable form. The pointer-keyed pin
// sets stay empty — Apply on a rehydrated Result falls back to the name-based
// ReApply path, which resolves pins against whatever System the caller
// installed the (digest-identical) app on.
func (p *Portable) Rehydrate() *Result {
	r := &Result{
		Methods: p.Methods, PinnedMethods: p.PinnedMethods,
		NativeFuncs: p.NativeFuncs, NativePages: p.NativePages,
		PinnedPages: p.PinnedPages, TaintFree: p.TaintFree,
		Unresolved:    p.Unresolved,
		Sources:       make(map[string]bool, len(p.Sources)),
		Sinks:         make(map[string]bool, len(p.Sinks)),
		Crossings:     make(map[string]bool, len(p.Crossings)),
		CrossingAddrs: make(map[uint32]bool, len(p.CrossingAddrs)),
		NativeCallees: make(map[string]bool, len(p.NativeCallees)),
		pinNames:      append([]string(nil), p.PinNames...),
		pinPages:      append([]uint32(nil), p.PinPages...),
		seedNames:     append([]string(nil), p.SeedNames...),
		rehydrated:    true,
	}
	for _, s := range p.Sources {
		r.Sources[s] = true
	}
	for _, s := range p.Sinks {
		r.Sinks[s] = true
	}
	for _, s := range p.Crossings {
		r.Crossings[s] = true
	}
	for _, a := range p.CrossingAddrs {
		r.CrossingAddrs[a] = true
	}
	for _, s := range p.NativeCallees {
		r.NativeCallees[s] = true
	}
	for _, f := range p.Findings {
		r.Findings = append(r.Findings, f.Fault())
	}
	return r
}
