package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"tracedst/internal/faultinject"
)

// bigTextTrace builds a synthetic trace of 3n records (several hundred KB
// for n in the thousands).
func bigTextTrace(n int) string {
	var b strings.Builder
	b.WriteString("START PID 42\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "S %09x 8 main LV 0 1 _zzq_result\n", 0x7ff0001b0+8*i)
		fmt.Fprintf(&b, "L %09x 4 compute GS glStructArray[%d].myArray[%d]\n", 0x601040+4*i, i%4, i%7)
		fmt.Fprintf(&b, "M %09x 4 main GV glScalar\n", 0x601040)
	}
	return b.String()
}

// decodeResult is everything a whole-trace decode reports: the header, the
// records (or the prefix kept before an error), the error text, each
// OnError call in order and how many damaged units were skipped.
type decodeResult struct {
	h      Header
	hasHdr bool
	recs   []Record
	err    string
	calls  []string
	bad    int
}

// withLog returns opts with OnError appending each call to r.calls.
func (r *decodeResult) withLog(opts DecodeOptions) DecodeOptions {
	opts.OnError = func(line int, text string, err error) {
		r.calls = append(r.calls, fmt.Sprintf("%d %q %v", line, text, err))
	}
	return opts
}

func (r *decodeResult) setErr(err error) {
	if err != nil {
		r.err = err.Error()
	}
}

// viaDecodeBytes decodes data with DecodeBytes. Its skip count is the
// number of OnError calls in lenient mode, each of which the readers
// charge as one skipped unit.
func viaDecodeBytes(data []byte, opts DecodeOptions) decodeResult {
	var r decodeResult
	var err error
	r.h, r.hasHdr, r.recs, err = DecodeBytes(data, r.withLog(opts), 1)
	r.setErr(err)
	if opts.Mode == Lenient {
		r.bad = len(r.calls)
	}
	return r
}

// viaSource decodes data by draining an OpenSource stream, copying each
// batch out.
func viaSource(data []byte, opts DecodeOptions) decodeResult {
	var r decodeResult
	src, _, err := OpenSource(bytes.NewReader(data), r.withLog(opts), 0)
	if err != nil {
		r.setErr(err)
		return r
	}
	r.h, err = src.Header()
	if err == nil {
		r.recs, err = ReadSource(src)
	}
	r.hasHdr, r.bad = src.HasHeader(), src.BadLines()
	r.setErr(err)
	return r
}

// viaShards decodes an indexed trace as the concatenation of its block
// range sources over ShardRanges(n), driven in order.
func viaShards(ix *IndexedTrace, n int, opts DecodeOptions) decodeResult {
	var r decodeResult
	r.h, _ = ix.Header()
	r.hasHdr = ix.HasHeader()
	opts = r.withLog(opts)
	for _, rg := range ix.ShardRanges(n) {
		src := ix.Source(rg[0], rg[1], opts)
		recs, err := ReadSource(src)
		r.recs = append(r.recs, recs...)
		r.bad += src.BadLines()
		if err != nil {
			r.setErr(err)
			break
		}
	}
	return r
}

// diff describes the first difference between two decodes, "" if none.
func (r decodeResult) diff(o decodeResult) string {
	switch {
	case r.h != o.h || r.hasHdr != o.hasHdr:
		return fmt.Sprintf("header %+v/%v vs %+v/%v", r.h, r.hasHdr, o.h, o.hasHdr)
	case r.err != o.err:
		return fmt.Sprintf("error %q vs %q", r.err, o.err)
	case !slices.Equal(r.calls, o.calls):
		return fmt.Sprintf("OnError calls %q vs %q", r.calls, o.calls)
	case r.bad != o.bad:
		return fmt.Sprintf("bad lines %d vs %d", r.bad, o.bad)
	case len(r.recs) != len(o.recs):
		return fmt.Sprintf("%d records vs %d", len(r.recs), len(o.recs))
	}
	for i := range r.recs {
		if !r.recs[i].Equal(&o.recs[i]) {
			return fmt.Sprintf("record %d: %v vs %v", i, &r.recs[i], &o.recs[i])
		}
	}
	return ""
}

// sameDecode asserts DecodeBytes agrees with the streaming drain on data.
func sameDecode(t *testing.T, data []byte, opts DecodeOptions) {
	t.Helper()
	if d := viaDecodeBytes(data, opts).diff(viaSource(data, opts)); d != "" {
		t.Fatalf("DecodeBytes vs OpenSource drain (%s): %s", opts.Mode, d)
	}
}

// footerMatchesScan reports whether ix's index came from a healthy footer
// that agrees with a frame scan of data: then the block range sources see
// exactly the blocks the serial reader does. A footer whose checksums hold
// but whose offsets or counts no longer match the frames (a mutated frame
// header) sends the two paths down different blocks by design.
func footerMatchesScan(ix *IndexedTrace, data []byte) bool {
	if !ix.HasFooter() || ix.FooterErr() != nil {
		return false
	}
	_, _, body, err := parseBinaryPreamble(data)
	if err != nil {
		return false
	}
	var scan IndexedTrace
	if scan.scanIndex(body, int64(len(data)-len(body))) != nil || scan.footerErr != nil {
		return false
	}
	return slices.Equal(scan.index.Offsets, ix.index.Offsets) &&
		slices.Equal(scan.index.Counts, ix.index.Counts) &&
		scan.index.Records == ix.index.Records
}

// overcountBlock returns a copy of a binary trace whose block at frame
// offset off claims one record more than it holds. The CRC covers only
// the payload, so the block passes it and fails mid-decode, after all its
// real records were decoded.
func overcountBlock(t testing.TB, data []byte, off int64) []byte {
	t.Helper()
	out := append([]byte(nil), data...)
	p := out[off:]
	_, n := binary.Uvarint(p)
	count, m := binary.Uvarint(p[n:])
	if len(binary.AppendUvarint(nil, count+1)) != m {
		t.Fatalf("record count %d+1 changes its varint length", count)
	}
	binary.PutUvarint(p[n:], count+1)
	return out
}

func TestDecodeBytesTextMatchesSerial(t *testing.T) {
	data := []byte(bigTextTrace(20000))
	sameDecode(t, data, DecodeOptions{})
	sameDecode(t, data, DecodeOptions{Mode: Lenient})
}

func TestDecodeBytesTextHeaderless(t *testing.T) {
	src := bigTextTrace(20000)
	sameDecode(t, []byte(src[strings.Index(src, "\n")+1:]), DecodeOptions{})
}

func TestDecodeBytesTextSmallInput(t *testing.T) {
	for _, src := range []string{sampleTrace, "", "\n\n\n", "START PID 3", "START PID x\n"} {
		sameDecode(t, []byte(src), DecodeOptions{})
		sameDecode(t, []byte(src), DecodeOptions{Mode: Lenient})
	}
}

func TestDecodeBytesTextBadLineFallsBack(t *testing.T) {
	data := []byte(bigTextTrace(20000))
	// Poison a line deep in the body: strict fails naming it, lenient
	// reports it through OnError and skips it.
	idx := bytes.Index(data, []byte("\nM"))
	data[idx+1] = '?'
	sameDecode(t, data, DecodeOptions{})
	sameDecode(t, data, DecodeOptions{Mode: Lenient})
	sameDecode(t, data, DecodeOptions{Mode: Lenient, MaxBadLines: 1})

	got := viaDecodeBytes(data, DecodeOptions{Mode: Lenient})
	if got.err != "" || len(got.calls) != 1 || len(got.recs) != 60000-1 {
		t.Fatalf("lenient: err=%q calls=%q records=%d", got.err, got.calls, len(got.recs))
	}
}

func TestDecodeBytesBinaryMatchesSerial(t *testing.T) {
	h, recs, err := ParseAll(bigTextTrace(5000))
	if err != nil {
		t.Fatal(err)
	}
	data := encodeBinary(t, &h, recs, 512)
	sameDecode(t, data, DecodeOptions{})

	// Damaged block: strict and lenient must both match the stream.
	bad := append([]byte(nil), data...)
	bad[len(bad)-1] ^= 0xff
	sameDecode(t, bad, DecodeOptions{})
	sameDecode(t, bad, DecodeOptions{Mode: Lenient})
	var calls []int
	_, _, _, err = DecodeBytes(bad, DecodeOptions{Mode: Lenient, OnError: func(line int, text string, err2 error) {
		calls = append(calls, line)
		if !errors.Is(err2, ErrBlockChecksum) {
			t.Errorf("OnError err = %v", err2)
		}
	}}, 1)
	if err != nil || len(calls) != 1 {
		t.Fatalf("lenient damaged decode: err=%v calls=%v", err, calls)
	}

	// Truncated frame: identical hard error.
	sameDecode(t, data[:len(data)-5], DecodeOptions{})
}

// TestDecodeBytesBinaryFrameDamagePrefix: frame damage (cuts that truncate
// a frame header or payload mid-file) must return the stream's exact
// kept-record prefix next to the identical error, strict and lenient.
func TestDecodeBytesBinaryFrameDamagePrefix(t *testing.T) {
	h, recs, err := ParseAll(bigTextTrace(5000))
	if err != nil {
		t.Fatal(err)
	}
	data := encodeBinary(t, &h, recs, 512)
	for _, cut := range []int{1, 7, 100, len(data) / 2} {
		trunc := data[:len(data)-cut]
		sameDecode(t, trunc, DecodeOptions{})
		sameDecode(t, trunc, DecodeOptions{Mode: Lenient})
	}
	// A mid-file cut leaves whole blocks before the damage: the partial
	// output must carry them, not come back empty.
	_, _, precs, perr := DecodeBytes(data[:len(data)/2], DecodeOptions{}, 1)
	if perr == nil {
		t.Fatal("mid-file truncation decoded cleanly")
	}
	if len(precs) == 0 {
		t.Fatal("partial output empty, want the decoded prefix")
	}
}

// FuzzDecodeBytes is the differential fuzzer for whole-trace decode over
// untrusted bytes: DecodeBytes must agree with a drain of OpenSource on
// header, records, error text, OnError sequence and skip count, strict and
// lenient. When the bytes open as an indexed trace whose footer is healthy
// and matches the frames, the block range sources over ShardRanges(1..3)
// must agree too.
func FuzzDecodeBytes(f *testing.F) {
	text := bigTextTrace(40)
	f.Add([]byte(text))
	f.Add([]byte(sampleTrace))
	for _, c := range faultinject.Classes() {
		if c.Name != "oversized-line" { // 2 MiB; a short one is added below
			f.Add([]byte(c.Apply(text, 1)))
		}
	}
	f.Add([]byte(faultinject.OversizeLine(text, 300)))

	h, recs, err := ParseAll(text)
	if err != nil {
		f.Fatal(err)
	}
	plain := encodeBinary(f, &h, recs, 16)
	indexed := encodeIndexed(f, &h, recs, 16)
	f.Add(plain)
	f.Add(indexed)
	f.Add(encodeIndexed(f, nil, recs[:5], 2))
	for _, c := range faultinject.GLBFooterClasses() {
		f.Add(c.Apply(indexed))
	}
	ix, err := NewIndexedBytes(indexed)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(overcountBlock(f, indexed, ix.Index().Offsets[2]))
	flipped := append([]byte(nil), indexed...)
	flipped[ix.Index().Offsets[4]+12] ^= 0x40
	f.Add(flipped)
	f.Add(plain[:len(plain)/2])

	modes := []DecodeOptions{
		{},
		{Mode: Lenient, MaxLineBytes: 256},
		{Mode: Lenient, MaxBadLines: 1},
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, opts := range modes {
			want := viaDecodeBytes(data, opts)
			if d := want.diff(viaSource(data, opts)); d != "" {
				t.Fatalf("DecodeBytes vs OpenSource drain (%+v): %s", opts, d)
			}
			if opts.MaxBadLines > 0 {
				continue // block range sources keep one skip budget per shard
			}
			ix, err := NewIndexedBytes(data)
			if err != nil || !footerMatchesScan(ix, data) {
				continue
			}
			for n := 1; n <= 3; n++ {
				if d := want.diff(viaShards(ix, n, opts)); d != "" {
					t.Fatalf("DecodeBytes vs %d shard sources (%+v): %s", n, opts, d)
				}
			}
		}
	})
}
