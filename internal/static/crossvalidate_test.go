package static

import (
	"fmt"
	"reflect"
	"testing"
)

// sscanfSourceAddr is the fmt.Sscanf parse of a SourceHandler line that
// CrossValidate's hex scan replaces; the table below holds the two equal.
func sscanfSourceAddr(line string) (uint32, bool) {
	var addr uint32
	_, err := fmt.Sscanf(line, "SourceHandler @0x%x", &addr)
	return addr, err == nil
}

// TestCrossValidateSourceHandlerLines: well-formed and malformed
// SourceHandler lines parse to the address fmt.Sscanf would scan (or fail
// where it fails), so the violation list is unchanged.
func TestCrossValidateSourceHandlerLines(t *testing.T) {
	r := &Result{CrossingAddrs: map[uint32]bool{0x40001000: true}}
	for _, tc := range []struct {
		line string
		want []string
	}{
		{"SourceHandler @0x40001000", nil},
		{"SourceHandler @0x40001004", []string{"dynamic JNI entry @0x40001004 not in static crossing reach set"}},
		{"SourceHandler @0x40001000 trailing text", nil},
		{"SourceHandler @0x4000100g", []string{"dynamic JNI entry @0x4000100 not in static crossing reach set"}},
		{"SourceHandler @0xABCDEF", []string{"dynamic JNI entry @0xabcdef not in static crossing reach set"}},
		{"SourceHandler @0x 40001004", []string{"dynamic JNI entry @0x40001004 not in static crossing reach set"}},
		{"SourceHandler @0x\t7", []string{"dynamic JNI entry @0x7 not in static crossing reach set"}},
		{"SourceHandler @0x", nil},
		{"SourceHandler @0x ", nil},
		{"SourceHandler @0xzz", nil},
		{"SourceHandler @0x-1", nil},
		{"SourceHandler @0x+1", nil},
		{"SourceHandler @0x1_0", []string{"dynamic JNI entry @0x1 not in static crossing reach set"}},
		{"SourceHandler @0x100000000", nil},
		{"SourceHandler @0xffffffff", []string{"dynamic JNI entry @0xffffffff not in static crossing reach set"}},
		{"SourceHandler @0x\n7", nil},
		{"SourceHandler @0x\r\n7", nil},
		{"SourceHandler @0x\u00a07", []string{"dynamic JNI entry @0x7 not in static crossing reach set"}},
		{"SourceHandler @0x\xff7", nil},
	} {
		got := r.CrossValidate([]string{tc.line})
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%q: violations %q, want %q", tc.line, got, tc.want)
		}
		addr, ok := scanHex32(tc.line[len("SourceHandler @0x"):])
		refAddr, refOK := sscanfSourceAddr(tc.line)
		if ok != refOK || (ok && addr != refAddr) {
			t.Errorf("%q: scanned (%#x, %v), fmt.Sscanf scans (%#x, %v)", tc.line, addr, ok, refAddr, refOK)
		}
	}
	// A RegisterNatives rebind voids the address-keyed check.
	if got := r.CrossValidate([]string{"RegisterNatives x", "SourceHandler @0x40001004"}); got != nil {
		t.Errorf("rebound run: violations %q, want none", got)
	}
}
