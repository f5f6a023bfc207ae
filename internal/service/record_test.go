package service

import (
	"reflect"
	"testing"
)

// TestVerdictRecordLogRoundTrip: a flow log survives the verdict record's
// text packing and its store form (JSON head plus raw text) exactly — empty
// logs, empty lines, quotes and HTML characters, and a line holding the
// separator itself (array fallback).
func TestVerdictRecordLogRoundTrip(t *testing.T) {
	for _, lines := range [][]string{
		nil,
		{""},
		{"", ""},
		{"a"},
		{"dvmCallJNIMethod: name=x", "SourceHandler @0x8000", ""},
		{"multi\nline", "tab\tand \"quotes\" <html> &  "},
		{"holds the " + logSep + " separator", "b"},
	} {
		var rec verdictRecord
		rec.FinalLog, rec.FinalLines = encodeLog(lines)
		data, err := rec.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		var back verdictRecord
		if err := back.UnmarshalBinary(data); err != nil {
			t.Fatal(err)
		}
		if got := decodeLog(back.FinalLog, back.FinalLines); !reflect.DeepEqual(got, lines) {
			t.Errorf("log %q round-trips to %q", lines, got)
		}
	}
}

// TestVerdictRecordRejectsTruncatedHead: a store form whose head length
// runs past the entry, or that is shorter than the length word, fails to
// decode (the store then evicts it as corrupt) instead of yielding a record.
func TestVerdictRecordRejectsTruncatedHead(t *testing.T) {
	rec := verdictRecord{Chain: []attemptRecord{{Mode: "ndroid", Verdict: "clean"}}}
	rec.FinalLog, rec.FinalLines = encodeLog([]string{"a", "b"})
	data, err := rec.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range [][]byte{data[:3], data[:10]} {
		var back verdictRecord
		if err := back.UnmarshalBinary(bad); err == nil {
			t.Errorf("%d-byte prefix decoded without error", len(bad))
		}
	}
}
