package trace

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"strings"
	"testing"
)

// TestWriterWriteZeroAlloc pins the text writer's per-record allocation
// count at zero: Write renders into a scratch buffer the writer owns, so
// steady-state encoding never touches the heap.
func TestWriterWriteZeroAlloc(t *testing.T) {
	_, recs := sampleRecords(t)
	wr := NewWriter(io.Discard)
	for i := range recs { // warm the scratch buffer
		if err := wr.Write(&recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(100, func() {
		for i := range recs {
			if err := wr.Write(&recs[i]); err != nil {
				t.Fatal(err)
			}
		}
	})
	if avg != 0 {
		t.Errorf("Writer.Write allocates: %.2f allocs per %d records, want 0", avg, len(recs))
	}
}

// TestInternerParseZeroAlloc pins the byte-slice parser's steady-state
// allocations at a per-line rate that rounds to zero: once the interner's
// name table holds every function, root and field name, re-parsing lines
// allocates only path slab chunks (up to 4096 elements each), which must
// stay at or below 0.01 allocations per line. The rate is measured from
// MemStats over many passes rather than by testing.AllocsPerRun, whose
// integer average would hide up to one allocation per pass.
func TestInternerParseZeroAlloc(t *testing.T) {
	var lines [][]byte
	for _, l := range bytes.Split([]byte(sampleTrace), []byte("\n")) {
		if len(l) == 0 || bytes.HasPrefix(l, []byte("START")) {
			continue
		}
		lines = append(lines, l)
	}
	in := NewInterner()
	parse := func() {
		for _, l := range lines {
			if _, err := in.ParseRecord(l); err != nil {
				t.Fatal(err)
			}
		}
	}
	parse() // warm the name table and the first slab chunk
	const passes = 1000
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < passes; i++ {
		parse()
	}
	runtime.ReadMemStats(&after)
	n := passes * len(lines)
	mallocs := after.Mallocs - before.Mallocs
	if per := float64(mallocs) / float64(n); per > 0.01 {
		t.Errorf("Interner.ParseRecord: %d mallocs over %d lines (%.4f/line), want at most 0.01/line", mallocs, n, per)
	}
}

// TestReaderSteadyStateAllocs streams a large trace through the Reader and
// asserts the steady state (after the interner and scratch buffers warm up
// on an initial prefix) allocates nothing per record.
func TestReaderSteadyStateAllocs(t *testing.T) {
	const warm, measured = 200, 5000
	data := []byte(bigTextTrace(2000)) // 6000 records
	rd := NewReader(bytes.NewReader(data))
	var rec Record
	var err error
	for i := 0; i < warm; i++ {
		if rec, err = rd.Read(); err != nil {
			t.Fatal(err)
		}
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < measured; i++ {
		if rec, err = rd.Read(); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	_ = rec
	mallocs := after.Mallocs - before.Mallocs
	// Allow a little background noise from the runtime itself, but per-record
	// cost must round to zero.
	if float64(mallocs)/measured > 0.01 {
		t.Errorf("Reader.Read steady state: %d mallocs over %d records", mallocs, measured)
	}
}

// soaTextTrace is the shape of the paper's T1 original (structure of
// arrays) at LEN n: a loop counter and the subscripts lSoA.mX[i] and
// lSoA.mY[i] for i < n, each subscript spelled only twice. A decoder that
// caches per spelling misses on a quarter of these records.
func soaTextTrace(n int) string {
	var b strings.Builder
	b.WriteString("START PID 7\n")
	for i := 0; i < n; i++ {
		b.WriteString("L 7feffa724 4 main LV 0 1 lI\n")
		fmt.Fprintf(&b, "S %09x 4 main LS 0 1 lSoA.mX[%d]\n", 0x7feffa760+4*i, i)
		fmt.Fprintf(&b, "S %09x 8 main LS 0 1 lSoA.mY[%d]\n", 0x7feffc6d0+8*i, i)
		fmt.Fprintf(&b, "L %09x 4 main LS 0 1 lSoA.mX[%d]\n", 0x7feffa760+4*i, i)
	}
	return b.String()
}

// TestDecodeUnboundedSubscriptsAllocs pins steady-state decode allocations
// at most 0.01 per record on a trace whose subscripts never repeat often,
// through the text source and through both .glb block sources.
func TestDecodeUnboundedSubscriptsAllocs(t *testing.T) {
	text := soaTextTrace(2000)
	h, recs, err := ParseAll(text)
	if err != nil {
		t.Fatal(err)
	}
	var glb bytes.Buffer
	bw := NewBinaryWriter(&glb)
	bw.SetBlockRecords(256)
	bw.EnableIndex()
	if err := bw.WriteHeader(h); err != nil {
		t.Fatal(err)
	}
	for i := range recs {
		if err := bw.Write(&recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	open := func(data []byte) func() RecordSource {
		return func() RecordSource {
			src, _, err := OpenSource(bytes.NewReader(data), DecodeOptions{}, 256)
			if err != nil {
				t.Fatal(err)
			}
			return src
		}
	}
	for _, tc := range []struct {
		name string
		open func() RecordSource
	}{
		{"text", open([]byte(text))},
		{"glb", open(glb.Bytes())},
		{"glb-indexed", func() RecordSource {
			tr, err := NewIndexedBytes(glb.Bytes())
			if err != nil {
				t.Fatal(err)
			}
			return tr.Source(0, tr.NumBlocks(), DecodeOptions{})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src := tc.open()
			const warm = 1024 // records: the name table, buffers and first slab chunks
			off := 0
			for off < warm {
				batch, err := src.NextBatch()
				if err != nil {
					t.Fatal(err)
				}
				off += len(batch)
			}
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			n := 0
			for {
				batch, err := src.NextBatch()
				if err == io.EOF {
					break
				}
				if err != nil {
					t.Fatal(err)
				}
				n += len(batch)
			}
			runtime.ReadMemStats(&after)
			if off+n != len(recs) {
				t.Fatalf("decoded %d records, want %d", off+n, len(recs))
			}
			mallocs := after.Mallocs - before.Mallocs
			if per := float64(mallocs) / float64(n); per > 0.01 {
				t.Errorf("%d mallocs over %d records (%.4f/rec), want at most 0.01/rec", mallocs, n, per)
			}
		})
	}
}
