// Package simcache is a content-addressed, on-disk store of finished
// simulation results. Entries are keyed by what determines a result —
// trace content hash, cache configuration, transformation rule, sampling
// or sharding tier, and engine version — so any consumer that is about to
// simulate a (trace, config, rule) it has seen before can return the
// stored statistics and rendered report instead of walking the trace
// again. The experiments sweeps consult it alongside checkpoints, and the
// trace service uses it to answer duplicate uploads immediately.
//
// The store is a flat directory of JSON files named by the SHA-256 of the
// key, written atomically (write-to-temp + rename, like checkpoints), so
// concurrent writers and readers — including separate processes sharing
// one cache directory — see either a complete entry or none. A stored
// entry embeds its key; a digest collision or torn file therefore reads
// as a miss, never as a wrong result.
//
// Invalidation is by key, never in place: traces are content-hashed, and
// any change to simulation semantics must bump EngineVersion, which
// orphans all previous entries.
package simcache

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"

	"tracedst/internal/cache"
	"tracedst/internal/telemetry"
	"tracedst/internal/trace"
)

// EngineVersion is part of every key. Bump it whenever simulation or
// report-rendering semantics change in any way that can alter stored
// results — stale entries then simply stop matching.
const EngineVersion = 1

// Key identifies one simulation result. Equal keys mean equal results;
// every field that can change the outcome must be represented.
type Key struct {
	// Trace is the trace content hash ("glb:…", "raw:…" or "recs:…" —
	// see HashFile and HashRecords).
	Trace string `json:"trace"`
	// Config is the canonical configuration signature (ConfigSig).
	Config string `json:"config"`
	// Rule is the transformation-rule hash (HashText), empty for none.
	Rule string `json:"rule,omitempty"`
	// Sampling qualifies the result tier: sampling parameters or shard
	// count when those change the (scaled or flush-at-boundary) result.
	Sampling string `json:"sampling,omitempty"`
	// Engine is the EngineVersion the result was produced under.
	Engine int `json:"engine"`
}

// digest is the key's file name: SHA-256 over an unambiguous encoding.
func (k Key) digest() string {
	h := sha256.New()
	fmt.Fprintf(h, "trace=%s\x00config=%s\x00rule=%s\x00sampling=%s\x00engine=%d\x00",
		k.Trace, k.Config, k.Rule, k.Sampling, k.Engine)
	return hex.EncodeToString(h.Sum(nil))
}

// Entry is one stored result. Consumers populate what they have: sweeps
// store miss totals, the service stores the full report; Stats carries
// the merged raw counters when available.
type Entry struct {
	// Records is how many records the simulation consumed.
	Records int64 `json:"records"`
	// BadLines and Warnings carry the ingest diagnostics of the original
	// run, so a cached service job reports identically to a fresh one.
	BadLines int `json:"bad_lines,omitempty"`
	Warnings int `json:"warnings,omitempty"`
	// Misses is the total miss count (demand misses, as Stats.Misses).
	Misses int64 `json:"misses"`
	// Stats holds the merged raw statistics, when the producer kept them.
	Stats *cache.Stats `json:"stats,omitempty"`
	// Report is the rendered text report, byte-for-byte.
	Report string `json:"report,omitempty"`
}

// envelope is the on-disk form: the key rides along so a reader can
// reject collisions and torn writes.
type envelope struct {
	Key   Key   `json:"key"`
	Entry Entry `json:"entry"`
}

// Store is a handle on one cache directory. All methods are safe for
// concurrent use; distinct processes may share a directory.
type Store struct {
	dir string

	lookups *telemetry.Counter
	hits    *telemetry.Counter
	misses  *telemetry.Counter
	puts    *telemetry.Counter
}

// Open returns a Store over dir, creating it if needed. Telemetry
// (simcache.lookups/hits/misses/puts) registers on reg — nil means the
// default registry — eagerly, so manifests show zeros rather than
// omitting the counters on an idle cache.
func Open(dir string, reg *telemetry.Registry) (*Store, error) {
	if reg == nil {
		reg = telemetry.Default()
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("simcache: %w", err)
	}
	return &Store{
		dir:     dir,
		lookups: reg.Counter("simcache.lookups"),
		hits:    reg.Counter("simcache.hits"),
		misses:  reg.Counter("simcache.misses"),
		puts:    reg.Counter("simcache.puts"),
	}, nil
}

// Dir returns the store's directory.
func (s *Store) Dir() string { return s.dir }

func (s *Store) path(k Key) string { return filepath.Join(s.dir, k.digest()+".json") }

// Get looks k up. A malformed or mismatching file counts as a miss — the
// caller re-simulates and overwrites it. Every lookup is exactly one hit
// or one miss (simcache.lookups == hits + misses).
func (s *Store) Get(k Key) (Entry, bool, error) {
	s.lookups.Inc()
	data, err := os.ReadFile(s.path(k))
	if err != nil {
		s.misses.Inc()
		if errors.Is(err, fs.ErrNotExist) {
			return Entry{}, false, nil
		}
		return Entry{}, false, fmt.Errorf("simcache: %w", err)
	}
	var env envelope
	if err := json.Unmarshal(data, &env); err != nil || env.Key != k {
		s.misses.Inc()
		return Entry{}, false, nil
	}
	s.hits.Inc()
	return env.Entry, true, nil
}

// Put stores e under k, atomically replacing any previous entry.
func (s *Store) Put(k Key, e Entry) error {
	data, err := json.MarshalIndent(envelope{Key: k, Entry: e}, "", "  ")
	if err != nil {
		return fmt.Errorf("simcache: %w", err)
	}
	if err := trace.WriteFileAtomic(s.path(k), append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("simcache: %w", err)
	}
	s.puts.Inc()
	return nil
}

// ConfigSig renders a cache configuration canonically for keys. Every
// field that changes simulation results appears; the display Name does
// not (it never reaches the report body).
func ConfigSig(cfg cache.Config) string {
	return fmt.Sprintf("size=%d bsize=%d assoc=%d repl=%s write=%s alloc=%s pf=%s seed=%d classify=%t",
		cfg.Size, cfg.BlockSize, cfg.Assoc, cfg.Repl, cfg.Write, cfg.Alloc, cfg.Prefetch,
		cfg.Seed, cfg.ClassifyMisses)
}

// HashText hashes an arbitrary text artifact (a transformation rule
// source, for example) for use in a key. Empty text hashes to "".
func HashText(src string) string {
	if src == "" {
		return ""
	}
	sum := sha256.Sum256([]byte(src))
	return "txt:" + hex.EncodeToString(sum[:])
}

// HashFile content-hashes a trace file. Indexed .glb traces hash the
// preamble, record count and every block's payload bytes, verifying each
// block's CRC32 as they go — no payload is decoded and no record is
// walked; anything else (text traces, binary traces without a parseable
// index, indexed traces with a damaged block) streams the raw bytes
// through SHA-256.
func HashFile(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", fmt.Errorf("simcache: %w", err)
	}
	prefix := make([]byte, trace.BinaryMagicLen)
	n, _ := io.ReadFull(f, prefix)
	if trace.DetectFormat(prefix[:n]) == trace.FormatBinary {
		f.Close()
		if h, err := hashIndexedFile(path); err == nil {
			return h, nil
		}
		// Unindexed or damaged binary: fall back to hashing the bytes.
		if f, err = os.Open(path); err != nil {
			return "", fmt.Errorf("simcache: %w", err)
		}
	} else if _, err := f.Seek(0, io.SeekStart); err != nil {
		f.Close()
		return "", fmt.Errorf("simcache: %w", err)
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", fmt.Errorf("simcache: %w", err)
	}
	return "raw:" + hex.EncodeToString(h.Sum(nil)), nil
}

func hashIndexedFile(path string) (string, error) {
	tr, err := trace.OpenIndexed(path)
	if err != nil {
		return "", err
	}
	defer tr.Close()
	if !tr.HasFooter() || tr.FooterErr() != nil {
		// A damaged or missing footer changes the job's validation
		// diagnostics without touching block payloads, so distinct damage
		// variants could collide under the payload hash. Hash the raw
		// bytes instead — only clean indexed traces take the block path.
		return "", fmt.Errorf("simcache: %s: no healthy block index", path)
	}
	return HashIndexed(tr)
}

// HashIndexed hashes an already-open indexed trace: its preamble and
// record count, then every data block's record count and payload bytes,
// each payload checked against its stored CRC32 on the way (see HashFile).
// A block that fails its check is an error, never a key.
func HashIndexed(tr *trace.IndexedTrace) (string, error) {
	hdr, _ := tr.Header()
	h := sha256.New()
	fmt.Fprintf(h, "glb hdr=%t pid=%d blocks=%d records=%d\x00",
		tr.HasHeader(), hdr.PID, tr.NumBlocks(), tr.Records())
	var word [16]byte
	err := tr.VerifiedBlocks(func(recCount int, payload []byte) {
		binary.LittleEndian.PutUint64(word[:8], uint64(recCount))
		binary.LittleEndian.PutUint64(word[8:], uint64(len(payload)))
		h.Write(word[:])
		h.Write(payload)
	})
	if err != nil {
		return "", fmt.Errorf("simcache: %w", err)
	}
	return "glb:" + hex.EncodeToString(h.Sum(nil)), nil
}

// HashRecords hashes an in-memory record slice (the experiments' memoized
// workload traces) by folding each record's canonical text rendering.
func HashRecords(recs []trace.Record) string {
	h := sha256.New()
	var buf []byte
	for i := range recs {
		buf = append(recs[i].AppendText(buf[:0]), '\n')
		h.Write(buf)
	}
	return "recs:" + hex.EncodeToString(h.Sum(nil))
}
