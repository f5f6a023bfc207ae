package service

import (
	"encoding/json"
	"reflect"
	"testing"
)

// TestVerdictRecordLogRoundTrip: a flow log survives the verdict record's
// text packing and a JSON round trip exactly — empty logs, empty lines,
// newlines, and a line holding the separator itself (array fallback).
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
		data, err := json.Marshal(&rec)
		if err != nil {
			t.Fatal(err)
		}
		var back verdictRecord
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatal(err)
		}
		if got := decodeLog(back.FinalLog, back.FinalLines); !reflect.DeepEqual(got, lines) {
			t.Errorf("log %q round-trips to %q", lines, got)
		}
	}
}
