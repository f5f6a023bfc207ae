package kernel

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/mem"
)

// refWriteAt is the straightforward file write: reallocate to the exact new
// size on growth. WriteAt must produce the same bytes.
func refWriteAt(data []byte, off uint32, p []byte) []byte {
	end := int(off) + len(p)
	if end > len(data) {
		grown := make([]byte, end)
		copy(grown, data)
		data = grown
	}
	copy(data[off:], p)
	return data
}

// A restore rewinds a file's Data in place, leaving the bytes the undone
// writes put there in its spare capacity. A later write past EOF must not
// expose them: the hole between EOF and the write offset reads zeros.
func TestWriteAtSparseAfterRestoreReadsZeros(t *testing.T) {
	k := New(mem.New())
	f := k.FS.Create("/data/f")
	f.WriteAt(0, bytes.Repeat([]byte{0x11}, 16))
	snap := k.Snapshot()
	f.WriteAt(16, bytes.Repeat([]byte{0xee}, 300))
	k.Restore(snap)
	if len(f.Data) != 16 || cap(f.Data) < 316 {
		t.Fatalf("restored len=%d cap=%d, want len 16 with the grown capacity kept", len(f.Data), cap(f.Data))
	}
	f.WriteAt(200, []byte{0x22})
	want := refWriteAt(bytes.Repeat([]byte{0x11}, 16), 200, []byte{0x22})
	if !bytes.Equal(f.Data, want) {
		t.Fatalf("sparse write after restore: hole holds %x, want zeros", f.Data[16:200])
	}
	m := mem.New()
	if n := f.ReadAt(100, 8, m, 0x4000); n != 8 || !bytes.Equal(m.ReadBytes(0x4000, 8), make([]byte, 8)) {
		t.Errorf("ReadAt in the hole = %x (n=%d), want zeros", m.ReadBytes(0x4000, 8), n)
	}
}

// Random write sequences, with snapshots and restores interleaved, leave
// exactly the bytes the reference write produces.
func TestWriteAtMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for seq := 0; seq < 200; seq++ {
		k := New(mem.New())
		f := k.FS.Create("/data/f")
		var ref, saved []byte
		var snap *KernelSnapshot
		for op := 0; op < 40; op++ {
			switch r := rng.Intn(10); {
			case r == 0:
				snap, saved = k.Snapshot(), append([]byte(nil), ref...)
			case r == 1 && snap != nil:
				k.Restore(snap)
				ref = append([]byte(nil), saved...)
			default:
				off := uint32(rng.Intn(len(ref) + 64))
				p := make([]byte, rng.Intn(48))
				rng.Read(p)
				f.WriteAt(off, p)
				ref = refWriteAt(ref, off, p)
			}
			if !bytes.Equal(f.Data, ref) {
				t.Fatalf("sequence %d op %d: file bytes diverge from the reference", seq, op)
			}
		}
	}
}
