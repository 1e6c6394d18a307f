package tracedst_test

import (
	"encoding/binary"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"tracedst/internal/trace"
)

// TestDecodeBytesAllocBound pins whole-trace decode of the matmul fixture
// to at most 1.5× the returned slice's bytes, text and .glb: the result is
// sized once up front, not grown by append, and .glb blocks decode
// straight into it. It also checks that a block failing mid-decode adds
// none of its records to the result, strict or lenient.
func TestDecodeBytesAllocBound(t *testing.T) {
	f := loadCodec(t)
	recSize := uint64(unsafe.Sizeof(trace.Record{}))
	for _, tc := range []struct {
		name string
		data []byte
	}{{"text", []byte(f.text)}, {"binary", f.binary}} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, _, recs, err := trace.DecodeBytes(tc.data, trace.DecodeOptions{}, 1)
		runtime.ReadMemStats(&after)
		if err != nil || len(recs) != len(f.recs) {
			t.Fatalf("%s: decoded %d records, err %v", tc.name, len(recs), err)
		}
		slice := uint64(len(recs)) * recSize
		if got := after.TotalAlloc - before.TotalAlloc; got > slice*3/2 {
			t.Errorf("%s: allocated %d bytes for a %d-byte result (%.2f×, limit 1.5×)",
				tc.name, got, slice, float64(got)/float64(slice))
		}
	}

	// Block 3 claims one record more than it holds. Its CRC covers only
	// the payload, so it passes the check and fails after decoding all of
	// its real records into the result's spare capacity.
	ix, err := trace.NewIndexedBytes(f.binary)
	if err != nil {
		t.Fatal(err)
	}
	idx := ix.Index()
	const bad = 2
	damaged := append([]byte(nil), f.binary...)
	p := damaged[idx.Offsets[bad]:]
	_, n := binary.Uvarint(p)
	count, m := binary.Uvarint(p[n:])
	if binary.PutUvarint(p[n:], count+1) != m {
		t.Fatalf("record count %d+1 changes its varint length", count)
	}
	lo := int(idx.Counts[0] + idx.Counts[1])
	hi := lo + int(idx.Counts[bad])

	_, _, recs, err := trace.DecodeBytes(damaged, trace.DecodeOptions{}, 1)
	if err == nil {
		t.Fatal("strict decode accepted the damaged block")
	}
	if !slices.EqualFunc(recs, f.recs[:lo], func(a, b trace.Record) bool { return a.Equal(&b) }) {
		t.Fatalf("strict: %d records returned, want the %d before the damaged block", len(recs), lo)
	}

	_, _, recs, err = trace.DecodeBytes(damaged, trace.DecodeOptions{Mode: trace.Lenient}, 1)
	want := append(slices.Clip(f.recs[:lo]), f.recs[hi:]...)
	if err != nil || !slices.EqualFunc(recs, want, func(a, b trace.Record) bool { return a.Equal(&b) }) {
		t.Fatalf("lenient: %d records (err %v), want %d with the damaged block skipped", len(recs), err, len(want))
	}
}
