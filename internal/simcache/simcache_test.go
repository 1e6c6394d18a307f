package simcache

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tracedst/internal/cache"
	"tracedst/internal/ctype"
	"tracedst/internal/telemetry"
	"tracedst/internal/trace"
)

func testStore(t *testing.T) (*Store, *telemetry.Registry) {
	t.Helper()
	reg := telemetry.NewRegistry()
	s, err := Open(filepath.Join(t.TempDir(), "sc"), reg)
	if err != nil {
		t.Fatal(err)
	}
	return s, reg
}

func testKey() Key {
	return Key{
		Trace:  "recs:deadbeef",
		Config: ConfigSig(cache.Config{Size: 4096, BlockSize: 32, Assoc: 2, Repl: cache.ReplLRU}),
		Engine: EngineVersion,
	}
}

// TestRoundTrip is the cache's core promise: a hit returns the exact
// bytes the miss path stored — report, diagnostics and counts.
func TestRoundTrip(t *testing.T) {
	s, reg := testStore(t)
	k := testKey()

	if _, ok, err := s.Get(k); err != nil || ok {
		t.Fatalf("empty store: ok=%v err=%v, want miss", ok, err)
	}
	want := Entry{
		Records:  12345,
		BadLines: 2,
		Warnings: 1,
		Misses:   678,
		Report:   "== report ==\nline one\n\ttabbed\nnon-ascii: Δ\n",
	}
	if err := s.Put(k, want); err != nil {
		t.Fatal(err)
	}
	got, ok, err := s.Get(k)
	if err != nil || !ok {
		t.Fatalf("after put: ok=%v err=%v, want hit", ok, err)
	}
	if got != want {
		t.Errorf("round trip mutated the entry:\n got %+v\nwant %+v", got, want)
	}
	if got.Report != want.Report {
		t.Errorf("report bytes differ")
	}

	counters := map[string]int64{
		"simcache.lookups": 2, "simcache.hits": 1, "simcache.misses": 1, "simcache.puts": 1,
	}
	for name, want := range counters {
		if got := reg.Counter(name).Value(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
}

// TestKeySensitivity: every key field must change the digest — a result
// stored under one (trace, config, rule, tier, engine) is invisible to
// all others, including an engine-version bump.
func TestKeySensitivity(t *testing.T) {
	s, _ := testStore(t)
	base := testKey()
	if err := s.Put(base, Entry{Records: 1}); err != nil {
		t.Fatal(err)
	}
	variants := map[string]Key{
		"trace":    {Trace: "recs:other", Config: base.Config, Engine: base.Engine},
		"config":   {Trace: base.Trace, Config: ConfigSig(cache.Config{Size: 8192, BlockSize: 32, Assoc: 2, Repl: cache.ReplLRU}), Engine: base.Engine},
		"rule":     {Trace: base.Trace, Config: base.Config, Rule: HashText("rule x => y"), Engine: base.Engine},
		"sampling": {Trace: base.Trace, Config: base.Config, Sampling: "@shards4", Engine: base.Engine},
		"engine":   {Trace: base.Trace, Config: base.Config, Engine: base.Engine + 1},
	}
	for field, k := range variants {
		if _, ok, err := s.Get(k); err != nil {
			t.Fatal(err)
		} else if ok {
			t.Errorf("key differing only in %s hit the stored entry", field)
		}
	}
	if _, ok, _ := s.Get(base); !ok {
		t.Error("unmodified key missed")
	}
}

// TestCollisionAndTornFilesReadAsMiss: a file whose embedded key does not
// match the lookup (digest collision) and a torn/garbage file must both
// read as misses, never as wrong results.
func TestCollisionAndTornFilesReadAsMiss(t *testing.T) {
	s, _ := testStore(t)
	k1, k2 := testKey(), testKey()
	k2.Trace = "recs:other"
	if err := s.Put(k1, Entry{Records: 1}); err != nil {
		t.Fatal(err)
	}
	// Simulate a digest collision: k1's file holds k2's envelope.
	other, err := os.ReadFile(s.path(k2))
	if err == nil {
		t.Fatal("k2 should not exist yet")
	}
	if err := s.Put(k2, Entry{Records: 2}); err != nil {
		t.Fatal(err)
	}
	other, err = os.ReadFile(s.path(k2))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(s.path(k1), other, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := s.Get(k1); err != nil || ok {
		t.Errorf("mismatching embedded key: ok=%v err=%v, want silent miss", ok, err)
	}
	// Torn write: truncated JSON.
	if err := os.WriteFile(s.path(k1), other[:len(other)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := s.Get(k1); err != nil || ok {
		t.Errorf("torn file: ok=%v err=%v, want silent miss", ok, err)
	}
	// And Put must recover by overwriting in place.
	if err := s.Put(k1, Entry{Records: 3}); err != nil {
		t.Fatal(err)
	}
	if e, ok, _ := s.Get(k1); !ok || e.Records != 3 {
		t.Errorf("after overwrite: ok=%v entry=%+v", ok, e)
	}
}

func testRecords(n int) []trace.Record {
	recs := make([]trace.Record, n)
	for i := range recs {
		recs[i] = trace.Record{
			Op: trace.Load, Addr: uint64(0x1000 + 8*i), Size: 8, Func: "f",
			HasSym: true, Vis: trace.Global, Var: ctype.AccessExpr{Root: "a"},
		}
	}
	return recs
}

func writeTraceFile(t *testing.T, name string, data []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func encodeBinary(t *testing.T, recs []trace.Record, indexed bool) []byte {
	t.Helper()
	var sb bytesBuffer
	bw := trace.NewBinaryWriter(&sb)
	if indexed {
		bw.EnableIndex()
		bw.SetBlockRecords(64)
	}
	for i := range recs {
		if err := bw.Write(&recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	return sb.b
}

// bytesBuffer is a minimal io.Writer over a byte slice (avoids importing
// bytes just for a buffer in one helper).
type bytesBuffer struct{ b []byte }

func (w *bytesBuffer) Write(p []byte) (int, error) { w.b = append(w.b, p...); return len(p), nil }

// TestHashIndexedBindsPayload: the glb: key covers the payload bytes, not
// the CRC32s the frames claim. Flipping any one payload byte of an indexed
// .glb (its stored CRC left as it was, so the frames still claim the clean
// trace's checksums) never yields the clean trace's key: HashIndexed fails
// on the block's CRC check, HashFile falls back to hashing raw bytes, and
// a store holding the clean trace's entry misses.
func TestHashIndexedBindsPayload(t *testing.T) {
	glb := encodeBinary(t, testRecords(500), true)
	clean, err := HashFile(writeTraceFile(t, "clean.glb", glb))
	if err != nil || !strings.HasPrefix(clean, "glb:") {
		t.Fatalf("clean trace hashed %q (err %v), want a glb: key", clean, err)
	}
	s, _ := testStore(t)
	key := Key{Trace: clean, Config: ConfigSig(cache.Paper32KDirect()), Engine: EngineVersion}
	if err := s.Put(key, Entry{Report: "clean report", Records: 500}); err != nil {
		t.Fatal(err)
	}

	tr, err := trace.NewIndexedBytes(glb)
	if err != nil {
		t.Fatal(err)
	}
	flips := 0
	for i, off := range tr.Index().Offsets {
		// Frame: payload length, record count (uvarints), CRC32, payload.
		p := glb[off:]
		plen, n := binary.Uvarint(p)
		_, m := binary.Uvarint(p[n:])
		start := int(off) + n + m + 4
		for j := start; j < start+int(plen); j++ {
			bad := append([]byte(nil), glb...)
			bad[j] ^= 0x01
			btr, err := trace.NewIndexedBytes(bad)
			if err != nil {
				t.Fatalf("block %d byte %d: open: %v", i+1, j-start, err)
			}
			if h, err := HashIndexed(btr); err == nil {
				t.Fatalf("block %d byte %d flipped: HashIndexed = %q, want a checksum error", i+1, j-start, h)
			}
			flips++
			if j != start && j != start+int(plen)/2 {
				continue
			}
			h, err := HashFile(writeTraceFile(t, "bad.glb", bad))
			if err != nil {
				t.Fatal(err)
			}
			if h == clean || !strings.HasPrefix(h, "raw:") {
				t.Errorf("block %d byte %d flipped: HashFile = %q, want a raw: key (clean %q)", i+1, j-start, h, clean)
			}
			k := key
			k.Trace = h
			if e, ok, err := s.Get(k); ok || err != nil {
				t.Errorf("block %d byte %d flipped: store returned %+v (ok %v, err %v), want a miss", i+1, j-start, e, ok, err)
			}
		}
	}
	if flips == 0 {
		t.Fatal("no payload bytes found to flip")
	}
}

// TestHashFileTiers: clean indexed .glb files take the cheap payload-hash
// path; unindexed binaries, damaged footers and text traces hash raw
// bytes — and equal content hashes equal either way.
func TestHashFileTiers(t *testing.T) {
	recs := testRecords(500)

	glb := encodeBinary(t, recs, true)
	p1 := writeTraceFile(t, "a.glb", glb)
	h1, err := HashFile(p1)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(h1, "glb:") {
		t.Errorf("indexed trace hashed %q, want glb: prefix", h1)
	}
	// Same bytes under another name hash identically.
	h2, err := HashFile(writeTraceFile(t, "b.glb", glb))
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 {
		t.Errorf("identical .glb content hashed differently: %q vs %q", h1, h2)
	}
	// HashIndexed over an open handle agrees with HashFile.
	tr, err := trace.NewIndexedBytes(glb)
	if err != nil {
		t.Fatal(err)
	}
	if h3, err := HashIndexed(tr); err != nil || h3 != h1 {
		t.Errorf("HashIndexed %q (err %v) != HashFile %q", h3, err, h1)
	}

	// Damage the footer: the cheap path must refuse (distinct damage
	// variants share block CRCs but not diagnostics) and fall back to raw.
	damaged := append([]byte(nil), glb...)
	damaged[len(damaged)-5] ^= 0xff
	hd, err := HashFile(writeTraceFile(t, "damaged.glb", damaged))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(hd, "raw:") {
		t.Errorf("damaged-footer trace hashed %q, want raw: fallback", hd)
	}
	if hd == h1 {
		t.Error("damaged trace collided with the clean trace")
	}

	// Unindexed binary and text traces hash raw bytes.
	plain := encodeBinary(t, recs, false)
	hp, err := HashFile(writeTraceFile(t, "plain.bin", plain))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(hp, "raw:") {
		t.Errorf("unindexed binary hashed %q, want raw:", hp)
	}
	var txt bytesBuffer
	tw := trace.NewWriter(&txt)
	for i := range recs {
		if err := tw.Write(&recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	ht, err := HashFile(writeTraceFile(t, "t.trace", txt.b))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(ht, "raw:") {
		t.Errorf("text trace hashed %q, want raw:", ht)
	}

	// A one-record change must change every tier's hash.
	recs[100].Addr++
	if g2 := encodeBinary(t, recs, true); g2 != nil {
		hg, err := HashFile(writeTraceFile(t, "c.glb", g2))
		if err != nil {
			t.Fatal(err)
		}
		if hg == h1 {
			t.Error("modified trace collided under the glb CRC fold")
		}
	}
}

// TestHashRecords: deterministic over equal slices, sensitive to any
// record change, distinct from the file-tier prefixes.
func TestHashRecords(t *testing.T) {
	recs := testRecords(100)
	h1 := HashRecords(recs)
	if !strings.HasPrefix(h1, "recs:") {
		t.Fatalf("got %q", h1)
	}
	if h2 := HashRecords(testRecords(100)); h2 != h1 {
		t.Errorf("equal slices hashed differently")
	}
	recs[42].Size = 4
	if h2 := HashRecords(recs); h2 == h1 {
		t.Errorf("modified slice collided")
	}
	if HashRecords(nil) == HashRecords(testRecords(1)) {
		t.Error("empty slice collided with one record")
	}
}

// TestConfigSig: every simulation-relevant field is represented, the
// display name is not.
func TestConfigSig(t *testing.T) {
	base := cache.Config{Name: "a", Size: 4096, BlockSize: 32, Assoc: 2, Repl: cache.ReplLRU}
	renamed := base
	renamed.Name = "b"
	if ConfigSig(base) != ConfigSig(renamed) {
		t.Error("display name leaked into the signature")
	}
	bigger := base
	bigger.Size = 8192
	if ConfigSig(base) == ConfigSig(bigger) {
		t.Error("size change did not change the signature")
	}
	classify := base
	classify.ClassifyMisses = true
	if ConfigSig(base) == ConfigSig(classify) {
		t.Error("classify change did not change the signature")
	}
}
