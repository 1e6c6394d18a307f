package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"reflect"

	"tracedst/internal/analysis"
	"tracedst/internal/cache"
	"tracedst/internal/dinero"
	"tracedst/internal/trace"
	"tracedst/internal/tracer"
	"tracedst/internal/workloads"
)

// layout-study is the paper's own loop on the default text format,
// gltrace | dsxform | dinero: trace a paper program, write Gleipnir text,
// transform it with the matching rule, read both traces back, sweep them
// over a config grid in one stats-only MultiSim pass each, and render an
// attributed report of the transformed layout. One round is one study of
// the four paper programs; one op is one (original, transformed) pair.

// studyPair is one paper program with its rule and its references,
// computed in set-up through tracer.Run, xform.TransformAll and one
// single-config dinero.Simulator per geometry over materialized records.
type studyPair struct {
	name string
	src  string
	defs map[string]string
	rule string

	recs, xrecs   []trace.Record
	stats, xstats []cache.Stats
	report, plot  string
}

type layoutStudy struct {
	pairs []*studyPair
	grid  []cache.Config
	attr  cache.Config // the attributed report's geometry: the paper's figure cache
}

// studyGridSize is how many geometries each sweep evaluates.
const studyGridSize = 8

func setupLayoutStudy(c setupCtx) (env, error) {
	rng := rand.New(rand.NewSource(c.seed))
	length := func() int { return 1900 + rng.Intn(201) }
	l1, l2, l3, l4 := length(), length(), length(), length()
	ls := &layoutStudy{
		attr: cache.Paper32KDirect(),
		pairs: []*studyPair{
			{name: "T1", src: workloads.Trans1SoA, defs: lenDefs(l1), rule: workloads.RuleTrans1ForLen(l1)},
			{name: "T2", src: workloads.Trans2Inline, defs: lenDefs(l2), rule: workloads.RuleTrans2ForLen(l2)},
			{name: "T3", src: workloads.Trans3Contiguous, defs: lenDefs(l3), rule: workloads.RuleTrans3ForLen(l3, 16, 8)},
			{name: "trans2-hot", src: workloads.Trans2HotLoop, defs: lenDefs(l4), rule: workloads.RuleTrans2ForLen(l4)},
		},
	}
	// Every seed sweeps the same mix of kernel paths: eight capacities
	// from 512 B to 64 KiB, two geometries per associativity, four per
	// block size and per policy, dealt to each other in a seeded order.
	// The seed changes which geometry gets which, not how much work the
	// sweep does.
	size, assoc, bsize, repl := rng.Perm(studyGridSize), rng.Perm(studyGridSize), rng.Perm(studyGridSize), rng.Perm(studyGridSize)
	for i := 0; i < studyGridSize; i++ {
		cfg, err := geometry(fmt.Sprintf("grid%d", i), 512<<size[i],
			32<<(bsize[i]%2), 1<<(assoc[i]%4), []string{"lru", "fifo"}[repl[i]%2])
		if err != nil {
			return nil, err
		}
		ls.grid = append(ls.grid, cfg)
	}

	ref := c.log.begin("reference", c.span)
	defer c.log.end(ref, 0, 0, 0, 0)
	for _, p := range ls.pairs {
		res, err := tracer.Run(p.src, p.defs, tracer.Options{})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.name, err)
		}
		p.recs = res.Records
		eng, err := newEngine(c.log, 0, p.rule)
		if err != nil {
			return nil, fmt.Errorf("%s rule: %w", p.name, err)
		}
		if p.xrecs, err = eng.TransformAll(p.recs); err != nil {
			return nil, fmt.Errorf("%s transform: %w", p.name, err)
		}
		for _, cfg := range ls.grid {
			st, _, err := simulateRef(cfg, p.recs)
			if err != nil {
				return nil, err
			}
			xst, _, err := simulateRef(cfg, p.xrecs)
			if err != nil {
				return nil, err
			}
			p.stats = append(p.stats, st)
			p.xstats = append(p.xstats, xst)
		}
		_, sim, err := simulateRef(ls.attr, p.xrecs)
		if err != nil {
			return nil, err
		}
		p.report = sim.Report()
		p.plot = analysis.FromSimulator(p.name, sim, false).CSV()
	}
	return ls, nil
}

func lenDefs(n int) map[string]string { return map[string]string{"LEN": fmt.Sprint(n)} }

// simulateRef is the reference path: one single-config Simulator over
// materialized records, starting from an empty cache.
func simulateRef(cfg cache.Config, recs []trace.Record) (cache.Stats, *dinero.Simulator, error) {
	sim, err := dinero.New(dinero.Options{L1: cfg})
	if err != nil {
		return cache.Stats{}, nil, err
	}
	sim.Process(recs)
	return sim.L1().Stats(), sim, nil
}

func (ls *layoutStudy) round(log *spanLog) (*roundResult, error) {
	rr := &roundResult{}
	clk := startOp()
	op := log.root("op")
	var recs int64
	for _, p := range ls.pairs {
		rr.attempted++
		n, err := ls.pair(log, op, clk, p)
		if err != nil {
			rr.fail("%s: %v", p.name, err)
		}
		recs += n
	}
	log.end(op, recs, 0, 0, 0)
	wall := clk.elapsed()
	rr.wallNS = wall.Nanoseconds()
	rr.records = recs
	rr.coldMS = []float64{float64(wall.Nanoseconds()) / 1e6}
	return rr, nil
}

// pair runs one (original, transformed) pair through the three tools and
// checks every output. It returns the original trace's record count.
func (ls *layoutStudy) pair(log *spanLog, op sp, clk *opClock, p *studyPair) (int64, error) {
	var bad error
	mismatch := func(format string, args ...any) {
		if bad == nil {
			bad = fmt.Errorf(format, args...)
		}
	}

	// gltrace: run the program, write its trace as text.
	res, err := traceProgram(log, op, p.src, p.defs)
	if err != nil {
		return 0, err
	}
	text, err := encode(log, op, trace.FormatText, res.Header, res.Records)
	if err != nil {
		return 0, err
	}
	clk.check(log, op, func() {
		if ok, why := sameRecords(res.Records, p.recs); !ok {
			mismatch("tracer output differs from the set-up trace: %s", why)
		}
	})

	// dsxform: read the text back, transform, write text.
	eng, err := newEngine(log, op, p.rule)
	if err != nil {
		return 0, err
	}
	src, _, err := trace.OpenSource(bytes.NewReader(text), trace.DecodeOptions{}, 0)
	if err != nil {
		return 0, err
	}
	var xbuf bytes.Buffer
	xw := trace.NewWriter(&xbuf)
	hdr, err := src.Header()
	if err != nil && !errors.Is(err, io.EOF) {
		return 0, err
	}
	if src.HasHeader() {
		if err := xw.WriteHeader(hdr); err != nil {
			return 0, err
		}
	}
	var out []trace.Record
	off := 0
	for {
		batch, err := nextBatch(log, op, src)
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return 0, err
		}
		clk.check(log, op, func() {
			if ok, why := sameRecords(batch, window(res.Records, off, len(batch))); !ok {
				mismatch("text round trip at record %d: %s", off, why)
			}
		})
		off += len(batch)

		if out, err = transform(log, op, eng, batch, out); err != nil {
			return 0, err
		}

		en := log.begin("encode", op)
		before := xbuf.Len()
		for i := range out {
			if err := xw.Write(&out[i]); err != nil {
				log.end(en, 0, 0, 0, 0)
				return 0, err
			}
		}
		log.end(en, int64(len(out)), 0, int64(xbuf.Len()-before), 0)
	}
	en := log.begin("encode", op)
	before := xbuf.Len()
	err = xw.Flush()
	log.end(en, 0, 0, int64(xbuf.Len()-before), 0)
	if err != nil {
		return 0, err
	}
	if off != len(res.Records) {
		mismatch("text round trip read %d records, want %d", off, len(res.Records))
	}

	// dinero: sweep the original and the transformed trace over the grid,
	// one stats-only pass each; the transformed pass also feeds the
	// attributed single-geometry simulation the report is rendered from.
	orig, err := dinero.NewMulti(dinero.MultiOptions{Configs: ls.grid, StatsOnly: true})
	if err != nil {
		return 0, err
	}
	if err := ls.sweep(log, op, clk, text, nil, orig, nil, mismatch); err != nil {
		return 0, err
	}
	xsweep, err := dinero.NewMulti(dinero.MultiOptions{Configs: ls.grid, StatsOnly: true})
	if err != nil {
		return 0, err
	}
	attr, err := dinero.NewMulti(dinero.MultiOptions{Configs: []cache.Config{ls.attr}})
	if err != nil {
		return 0, err
	}
	if err := ls.sweep(log, op, clk, xbuf.Bytes(), p.xrecs, xsweep, attr, mismatch); err != nil {
		return 0, err
	}

	rn := log.begin("render", op)
	report := attr.Report(0)
	plot := analysis.FromMulti(p.name, attr, 0, false).CSV()
	log.end(rn, 0, 0, int64(len(report)+len(plot)), 0)

	clk.check(log, op, func() {
		for i := range ls.grid {
			if !reflect.DeepEqual(orig.Stats(i), p.stats[i]) {
				mismatch("original sweep %s differs from the single-config simulator", ls.grid[i].Name)
			}
			if !reflect.DeepEqual(xsweep.Stats(i), p.xstats[i]) {
				mismatch("transformed sweep %s differs from the single-config simulator", ls.grid[i].Name)
			}
		}
		if report != p.report {
			mismatch("attributed report differs from the single-config simulator")
		}
		if plot != p.plot {
			mismatch("per-set plot differs from the single-config simulator")
		}
	})
	return int64(len(res.Records)), bad
}

// sweep decodes a text trace and feeds every batch to the sweep (and the
// attributed simulation when non-nil). When want is non-nil each decoded
// batch is checked against it.
func (ls *layoutStudy) sweep(log *spanLog, op sp, clk *opClock, text []byte, want []trace.Record,
	sweep, attr *dinero.MultiSim, mismatch func(string, ...any)) error {
	src, _, err := trace.OpenSource(bytes.NewReader(text), trace.DecodeOptions{}, 0)
	if err != nil {
		return err
	}
	off := 0
	for {
		batch, err := nextBatch(log, op, src)
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return err
		}
		if want != nil {
			clk.check(log, op, func() {
				if ok, why := sameRecords(batch, window(want, off, len(batch))); !ok {
					mismatch("transformed trace at record %d differs from the set-up transform: %s", off, why)
				}
			})
		}
		off += len(batch)
		n := int64(len(batch))
		s := log.begin("simulate", op)
		sweep.Process(batch)
		cfgs := n * int64(sweep.NumConfigs())
		if attr != nil {
			attr.Process(batch)
			cfgs += n
		}
		log.end(s, n, 0, 0, cfgs)
	}
	if want != nil && off != len(want) {
		mismatch("transformed trace has %d records, want %d", off, len(want))
	}
	return nil
}
