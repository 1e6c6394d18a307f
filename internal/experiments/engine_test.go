package experiments

import (
	"context"
	"testing"
	"time"

	"tracedst/internal/cache"
	"tracedst/internal/dinero"
	"tracedst/internal/telemetry"
	"tracedst/internal/trace"
)

// missesAt is the per-config engine: one full Simulator per (size, side)
// simulation. The sweeps run on sweepMisses, which evaluates all sizes in
// one pass; missesAt is its reference here and the baseline
// BenchmarkSweepEngines gates it against (BENCH_multisim.json). It
// simulates recs in chunks, polling ctx between chunks, and publishes its
// counters to the default registry like the sweeps do.
func missesAt(ctx context.Context, recs []trace.Record, cfg cache.Config) (int64, error) {
	sim, err := dinero.New(dinero.Options{L1: cfg, Syms: sharedSyms})
	if err != nil {
		return 0, err
	}
	for start := 0; start < len(recs); start += simChunk {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		sim.Process(recs[start:min(start+simChunk, len(recs))])
	}
	reg := telemetry.Default()
	reg.Counter("experiments.records_in").Add(int64(len(recs)))
	sim.PublishTelemetry(reg)
	return sim.L1().Stats().Misses(), nil
}

// sweepSides loads every (spec, side) of the standard sweeps with its
// record slice and per-size configs — the unit both engines consume.
type engineSide struct {
	id   string
	recs []trace.Record
	cfgs []cache.Config
}

func loadEngineSides(tb testing.TB) []engineSide {
	var out []engineSide
	for _, sp := range sweepSpecs() {
		for sd, recsOf := range []func() ([]trace.Record, error){sp.orig, sp.xform} {
			recs, err := recsOf()
			if err != nil {
				tb.Fatal(err)
			}
			cfgs := make([]cache.Config, len(sp.sizes))
			for i, size := range sp.sizes {
				cfgs[i] = sp.config(size)
			}
			out = append(out, engineSide{sp.id + "/" + sweepSides[sd], recs, cfgs})
		}
	}
	return out
}

// TestSweepEnginesEquivalent pins the rewire's core guarantee: the
// single-pass engine returns, for every spec, side and size of the
// standard sweeps, exactly the miss count the per-config engine computes.
func TestSweepEnginesEquivalent(t *testing.T) {
	ctx := context.Background()
	for _, sd := range loadEngineSides(t) {
		multi, err := sweepMisses(ctx, sd.recs, sd.cfgs, dinero.Sampling{})
		if err != nil {
			t.Fatal(err)
		}
		for i, cfg := range sd.cfgs {
			per, err := missesAt(ctx, sd.recs, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if per != multi[i] {
				t.Errorf("%s size %d: single-pass misses %d != per-config misses %d",
					sd.id, cfg.Size, multi[i], per)
			}
		}
	}
}

// TestSweepsSamplingCheckpointSeparation: sampled runs must not replay
// exact checkpoint entries (or vice versa) — their keys differ.
func TestSweepsSamplingCheckpointSeparation(t *testing.T) {
	dir := t.TempDir()
	ck, err := OpenCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := SweepsOpts(context.Background(), RunOptions{Workers: 1, Checkpoint: ck})
	if err != nil {
		t.Fatal(err)
	}
	exactKeys := ck.Len()
	sampled, err := SweepsOpts(context.Background(), RunOptions{
		Workers: 1, Checkpoint: ck, Sampling: dinero.Sampling{SetFactor: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	if ck.Len() == exactKeys {
		t.Fatal("sampled run reused exact checkpoint entries")
	}
	// The sampled estimate should be in the right ballpark of the exact
	// totals (the golden suite measures tight per-workload bounds; this
	// guards the plumbing: scaling applied exactly once).
	for si, ex := range exact {
		for pi, p := range ex.Points {
			est := sampled[si].Points[pi]
			if p.MissesOrig > 1000 {
				ratio := float64(est.MissesOrig) / float64(p.MissesOrig)
				if ratio < 0.5 || ratio > 2.0 {
					t.Errorf("%s size %d: sampled orig misses %d vs exact %d (ratio %.2f)",
						ex.ID, p.CacheBytes, est.MissesOrig, p.MissesOrig, ratio)
				}
			}
		}
	}
}

// BenchmarkSweepEngines interleaves the three sweep engines over the full
// standard sweep — per-config (one Simulator per size), single-pass
// multi-config, and sampled multi-config (sets/8 + every 4th window) — in
// one benchmark so scheduler noise hits all three equally. benchguard
// gates perconfig_ns/op / multisim_ns/op ≥ 3 in CI.
func BenchmarkSweepEngines(b *testing.B) {
	sides := loadEngineSides(b)
	ctx := context.Background()
	sampled := dinero.Sampling{SetFactor: 8, Interval: 4}
	var tPer, tMulti, tSampled time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := time.Now()
		for _, sd := range sides {
			for _, cfg := range sd.cfgs {
				if _, err := missesAt(ctx, sd.recs, cfg); err != nil {
					b.Fatal(err)
				}
			}
		}
		tPer += time.Since(start)

		start = time.Now()
		for _, sd := range sides {
			if _, err := sweepMisses(ctx, sd.recs, sd.cfgs, dinero.Sampling{}); err != nil {
				b.Fatal(err)
			}
		}
		tMulti += time.Since(start)

		start = time.Now()
		for _, sd := range sides {
			if _, err := sweepMisses(ctx, sd.recs, sd.cfgs, sampled); err != nil {
				b.Fatal(err)
			}
		}
		tSampled += time.Since(start)
	}
	b.ReportMetric(float64(tPer.Nanoseconds())/float64(b.N), "perconfig_ns/op")
	b.ReportMetric(float64(tMulti.Nanoseconds())/float64(b.N), "multisim_ns/op")
	b.ReportMetric(float64(tSampled.Nanoseconds())/float64(b.N), "sampled_ns/op")
	if tMulti > 0 {
		b.ReportMetric(tPer.Seconds()/tMulti.Seconds(), "speedup")
	}
}
