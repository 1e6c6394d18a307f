package trace

import (
	"bytes"
	"io"
	"reflect"
	"strings"
	"testing"
)

// FuzzParseRecord asserts the record parser never panics and that every
// accepted line round-trips: String() re-parses to an Equal record.
func FuzzParseRecord(f *testing.F) {
	seeds := []string{
		"S 000601040 4 main GV glScalar",
		"L 7ff0001b0 8 main",
		"S 0006010e0 8 foo GS glStructArray[0].d1",
		"M 7ff0001b8 4 main LV 0 1 i",
		"S 7ff0001b0 8 main LS 2 3 lcStrcArray[1].myArray[9]",
		"X 7ff0001a8 8 foo",
		"START PID 13063",
		"S 000601040 4 main GV",
		"q zz -1 f GV x",
		"S 000601040 99999999999999999999 main GV g",
		"",
		"   ",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, line string) {
		rec, err := ParseRecord(line)
		if err != nil {
			return
		}
		again, err2 := ParseRecord(rec.String())
		if err2 != nil {
			t.Fatalf("round trip rejected: %q -> %q: %v", line, rec.String(), err2)
		}
		if !again.Equal(&rec) {
			t.Fatalf("round trip changed record: %q -> %q -> %q", line, rec.String(), again.String())
		}
	})
}

// FuzzInternerParity is the differential fuzzer for the interning parser:
// lines fed one after another through one reused Interner must parse to
// the record a fresh ParseRecordBytes returns — Equal, with the same Var
// down to the Path — or fail with the same error text. Every record is
// checked again after the last line, so a path the slab handed out twice
// or overwrote shows up too.
func FuzzInternerParity(f *testing.F) {
	f.Add("S 000601040 4 main GV glScalar\nL 7ff0001b0 8 main\nS 7feffa760 4 main LS 0 1 lSoA.mX[12]")
	f.Add("S 0006010e0 8 foo GS glStructArray[0].myArray[3]\nS 0006010e0 8 foo GS glStructArray[0].myArray[3]")
	f.Add("S 0 4 f GS a[+1]\nS 0 4 f GS a[-1]\nS 0 4 f GS a[99999999999999999999]\nS 0 4 f GS a[0000000000000000001]")
	f.Add("S 0 4 f GS a[999999999999999999]\nS 0 4 f GS a[9223372036854775807]\nS 0 4 f GS a[9223372036854775808]")
	f.Add("S 0 4 f GS a.b]c\nS 0 4 f GS a[1]b\nS 0 4 f GS a..b\nS 0 4 f GS a.\nS 0 4 f GS a[\nS 0 4 f GS x]y\nS 0 4 f GS [0]")
	f.Add("S 0 4 f GS a[]\nS 0 4 f GS a[1][2].c[3]\nS 0 4 f GS a[1]]\nS 0 4 f GS a[ 1]\nS 0 4 f GS a[0x1]")
	f.Add("S\t000601040 4  main\vGV glScalar \nM 7ff0001b8 4 main LV 0 1 i\r\n L 1 2 f GV g\x00")
	f.Add("S 7ff0001b0 8 main_with_a_very_long_function_name LS 2 3 lcStrcArray[1].myArray[9].deeper[12345]")
	f.Fuzz(func(t *testing.T, src string) {
		in := NewInterner()
		type parsed struct {
			line string
			rec  Record
		}
		var kept []parsed
		for _, line := range strings.Split(src, "\n") {
			got, gerr := in.ParseRecord([]byte(line))
			want, werr := ParseRecordBytes([]byte(line))
			if (gerr == nil) != (werr == nil) || gerr != nil && gerr.Error() != werr.Error() {
				t.Fatalf("on %q: Interner err %v, ParseRecordBytes err %v", line, gerr, werr)
			}
			if gerr != nil {
				continue
			}
			if !got.Equal(&want) || !reflect.DeepEqual(got.Var, want.Var) {
				t.Fatalf("on %q: Interner %q %#v, ParseRecordBytes %q %#v", line, got.String(), got.Var, want.String(), want.Var)
			}
			kept = append(kept, parsed{line, got})
		}
		for _, k := range kept {
			want, _ := ParseRecordBytes([]byte(k.line))
			if !reflect.DeepEqual(k.rec.Var, want.Var) {
				t.Fatalf("record for %q changed after later lines: %#v", k.line, k.rec.Var)
			}
		}
	})
}

// FuzzParseHeader asserts the header parser never panics and accepted
// headers round-trip.
func FuzzParseHeader(f *testing.F) {
	for _, s := range []string{"START PID 13063", "START PID -1", "START", "START PID x", ""} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, line string) {
		h, err := ParseHeader(line)
		if err != nil {
			return
		}
		if _, err2 := ParseHeader(h.String()); err2 != nil {
			t.Fatalf("round trip rejected: %q -> %q: %v", line, h.String(), err2)
		}
	})
}

// FuzzReader streams arbitrary bytes through both decoder modes: neither
// may panic, strict must stop at the first bad line, and lenient with an
// unlimited budget must always reach EOF.
func FuzzReader(f *testing.F) {
	f.Add("START PID 1\nS 000601040 4 main GV glScalar\n")
	f.Add("\x00\xff\nS 000601040 4\n\n")
	f.Add("START PID banana\nL 7ff0001b0 8 main\n")
	f.Fuzz(func(t *testing.T, src string) {
		strictRecs, _ := NewReader(strings.NewReader(src)).ReadAll()
		rd := NewReaderOptions(strings.NewReader(src), DecodeOptions{Mode: Lenient})
		lenRecs, err := rd.ReadAll()
		if err != nil {
			t.Fatalf("lenient decode with unlimited budget failed: %v", err)
		}
		if len(lenRecs) < len(strictRecs) {
			t.Fatalf("lenient recovered %d records, strict %d", len(lenRecs), len(strictRecs))
		}
	})
}

// FuzzCodecRoundTrip is the differential fuzzer for the two container
// formats: any text trace the lenient decoder accepts must survive a
// text → binary → text round trip byte-identically, and the byte-slice
// record parser must agree with the string parser on every input line.
func FuzzCodecRoundTrip(f *testing.F) {
	f.Add("START PID 13063\nS 000601040 4 main GV glScalar\nL 7ff0001b0 8 main\n")
	f.Add("S 0006010e0 8 foo GS glStructArray[0].d1\nM 7ff0001b8 4 main LV 0 1 i\n")
	f.Add("START PID -7\nX 7ff0001a8 8 foo\nS 7ff0001b0 8 main LS 2 3 a[1].b[9]\n")
	f.Add("junk\nS 000601040 4 main GV glScalar\n")
	f.Add("")
	f.Fuzz(func(t *testing.T, src string) {
		// Differential check: the zero-alloc byte parser and the string
		// parser must accept the same lines and produce equal records.
		for _, line := range strings.Split(src, "\n") {
			rs, errS := ParseRecord(line)
			rb, errB := ParseRecordBytes([]byte(line))
			if (errS == nil) != (errB == nil) {
				t.Fatalf("parser disagreement on %q: string err=%v bytes err=%v", line, errS, errB)
			}
			if errS == nil && !rs.Equal(&rb) {
				t.Fatalf("parsers differ on %q: %q vs %q", line, rs.String(), rb.String())
			}
		}

		// Round trip: decode leniently, re-render as canonical text, then
		// push through the binary codec and back.
		rd := NewReaderOptions(strings.NewReader(src), DecodeOptions{Mode: Lenient})
		recs, err := rd.ReadAll()
		if err != nil {
			t.Fatalf("lenient decode: %v", err)
		}
		h, err := rd.Header()
		if err != nil {
			t.Fatalf("header: %v", err)
		}
		hasHdr := rd.HasHeader()

		var canon bytes.Buffer
		if err := writeTrace(&canon, h, hasHdr, recs, FormatText); err != nil {
			t.Fatalf("render text: %v", err)
		}

		var bin bytes.Buffer
		if err := writeTrace(&bin, h, hasHdr, recs, FormatBinary); err != nil {
			t.Fatalf("encode binary: %v", err)
		}
		br := NewBinaryReader(bytes.NewReader(bin.Bytes()))
		recs2, err := br.ReadAll()
		if err != nil {
			t.Fatalf("decode binary: %v", err)
		}
		h2, err := br.Header()
		if err != nil {
			t.Fatalf("binary header: %v", err)
		}
		if br.HasHeader() != hasHdr || (hasHdr && h2 != h) {
			t.Fatalf("header changed: %v/%v -> %v/%v", h, hasHdr, h2, br.HasHeader())
		}
		var canon2 bytes.Buffer
		if err := writeTrace(&canon2, h2, br.HasHeader(), recs2, FormatText); err != nil {
			t.Fatalf("re-render text: %v", err)
		}
		if !bytes.Equal(canon.Bytes(), canon2.Bytes()) {
			t.Fatalf("text -> binary -> text changed the trace:\nbefore: %q\nafter:  %q",
				canon.String(), canon2.String())
		}
	})
}

// writeTrace renders records in the given container format.
func writeTrace(w io.Writer, h Header, hasHdr bool, recs []Record, f FileFormat) error {
	tw := NewWriterFormat(w, f)
	if hasHdr {
		if err := tw.WriteHeader(h); err != nil {
			return err
		}
	}
	for i := range recs {
		if err := tw.Write(&recs[i]); err != nil {
			return err
		}
	}
	return tw.Flush()
}
