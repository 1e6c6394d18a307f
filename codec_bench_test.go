// Benchmarks for the trace codec layer: text and binary decode/encode
// throughput on the matmul workload trace. Run with:
//
//	go test . -run xxx -bench 'Decode|Encode' -benchmem
package tracedst_test

import (
	"bytes"
	"io"
	"strings"
	"sync"
	"testing"

	"tracedst/internal/trace"
	"tracedst/internal/tracer"
	"tracedst/internal/workloads"
)

// codecFixture renders the shared matmul trace (load(b).big) once per
// container format.
type codecFixture struct {
	recs   []trace.Record
	text   string
	binary []byte
}

var codecFix codecFixture

func loadCodec(b testing.TB) *codecFixture {
	b.Helper()
	f := load(b)
	if codecFix.text == "" {
		codecFix.recs = f.big
		codecFix.text = trace.Format(trace.Header{PID: 1}, f.big)
		var buf bytes.Buffer
		bw := trace.NewBinaryWriter(&buf)
		if err := bw.WriteHeader(trace.Header{PID: 1}); err != nil {
			b.Fatal(err)
		}
		for i := range f.big {
			if err := bw.Write(&f.big[i]); err != nil {
				b.Fatal(err)
			}
		}
		if err := bw.Flush(); err != nil {
			b.Fatal(err)
		}
		codecFix.binary = buf.Bytes()
	}
	return &codecFix
}

func reportRecords(b *testing.B, perIter int) {
	b.ReportMetric(float64(perIter*b.N)/b.Elapsed().Seconds(), "records/s")
}

func BenchmarkDecodeText(b *testing.B) {
	f := loadCodec(b)
	b.SetBytes(int64(len(f.text)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rd := trace.NewReader(strings.NewReader(f.text))
		recs, err := rd.ReadAll()
		if err != nil || len(recs) != len(f.recs) {
			b.Fatalf("decoded %d records, err %v", len(recs), err)
		}
	}
	reportRecords(b, len(f.recs))
}

// soaText is the paper's T1 original (structure of arrays) at LEN 2000 as
// Gleipnir text: its subscripts (lSoA.mX[i], i < 2000) never repeat often,
// so a decoder caching per spelling would miss on about a quarter of the
// records.
var soaText struct {
	once sync.Once
	text string
	recs int
}

func loadSoAText(b *testing.B) (string, int) {
	b.Helper()
	soaText.once.Do(func() {
		res, err := tracer.Run(workloads.Trans1SoA, map[string]string{"LEN": "2000"}, tracer.Options{})
		if err != nil {
			panic(err)
		}
		soaText.text = trace.Format(res.Header, res.Records)
		soaText.recs = len(res.Records)
	})
	return soaText.text, soaText.recs
}

// BenchmarkDecodeTextUnboundedSubscripts streams the T1 trace through
// OpenSource/NextBatch, the path dsxform and dinero read text with.
func BenchmarkDecodeTextUnboundedSubscripts(b *testing.B) {
	text, n := loadSoAText(b)
	b.SetBytes(int64(len(text)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src, _, err := trace.OpenSource(strings.NewReader(text), trace.DecodeOptions{}, 0)
		if err != nil {
			b.Fatal(err)
		}
		got := 0
		for {
			batch, err := src.NextBatch()
			if err == io.EOF {
				break
			}
			if err != nil {
				b.Fatal(err)
			}
			got += len(batch)
		}
		if got != n {
			b.Fatalf("decoded %d records, want %d", got, n)
		}
	}
	reportRecords(b, n)
}

func BenchmarkEncodeText(b *testing.B) {
	f := loadCodec(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wr := trace.NewWriter(io.Discard)
		for j := range f.recs {
			if err := wr.Write(&f.recs[j]); err != nil {
				b.Fatal(err)
			}
		}
		if err := wr.Flush(); err != nil {
			b.Fatal(err)
		}
	}
	reportRecords(b, len(f.recs))
}

func BenchmarkDecodeBinary(b *testing.B) {
	f := loadCodec(b)
	b.SetBytes(int64(len(f.binary)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rd := trace.NewBinaryReader(bytes.NewReader(f.binary))
		recs, err := rd.ReadAll()
		if err != nil || len(recs) != len(f.recs) {
			b.Fatalf("decoded %d records, err %v", len(recs), err)
		}
	}
	reportRecords(b, len(f.recs))
}

func BenchmarkEncodeBinary(b *testing.B) {
	f := loadCodec(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wr := trace.NewBinaryWriter(io.Discard)
		for j := range f.recs {
			if err := wr.Write(&f.recs[j]); err != nil {
				b.Fatal(err)
			}
		}
		if err := wr.Flush(); err != nil {
			b.Fatal(err)
		}
	}
	reportRecords(b, len(f.recs))
}

// BenchmarkDecodeBytesText decodes the whole in-memory text trace with
// DecodeBytes, which sizes the result once from the newline count.
func BenchmarkDecodeBytesText(b *testing.B) {
	f := loadCodec(b)
	data := []byte(f.text)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _, recs, err := trace.DecodeBytes(data, trace.DecodeOptions{}, 1)
		if err != nil || len(recs) != len(f.recs) {
			b.Fatalf("decoded %d records, err %v", len(recs), err)
		}
	}
	reportRecords(b, len(f.recs))
}

// BenchmarkDecodeBytesBinary decodes the whole in-memory .glb trace with
// DecodeBytes, which sizes the result once from the frames' record counts.
func BenchmarkDecodeBytesBinary(b *testing.B) {
	f := loadCodec(b)
	b.SetBytes(int64(len(f.binary)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _, recs, err := trace.DecodeBytes(f.binary, trace.DecodeOptions{}, 1)
		if err != nil || len(recs) != len(f.recs) {
			b.Fatalf("decoded %d records, err %v", len(recs), err)
		}
	}
	reportRecords(b, len(f.recs))
}
