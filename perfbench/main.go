// Command perfbench is tracedst's seeded benchmark. It runs in one process:
// it generates its inputs from --seed, sets a workload up several times,
// then repeats the workload's round of operations for --seconds seconds
// and prints one JSON result line. Every operation's output is checked
// against a reference computed during set-up by an independent path.
//
// With --trace 0 the result carries the end-to-end metrics, measured with
// tracing off. With --trace 1 rounds alternate between untraced and
// traced; the traced ones record spans around each call into a layer,
// and the result carries the per-layer metrics derived from them, plus
// the tracing overhead against the untraced rounds. The spans are written
// as JSONL under .bench_build/perfbench/.
//
// Run it through perfbench/run.sh from the repository root; see
// perfbench/README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// setupRepeats is how many times a run sets its workload up; setup_s is
// the median, which a single set-up's noise cannot move.
const setupRepeats = 5

// benchProcs is the benchmark's GOMAXPROCS. On a shared 2-vCPU guest
// (Intel Xeon), service-mix throughput with two Ps swung 1.75× between
// runs as the hypervisor took vCPUs away, and 1.3× with one P (README.md,
// "Steadiness"). The service-mix clients and server workers still run
// concurrently, interleaved on the one P.
const benchProcs = 1

// benchDir is where runs keep scratch files and span exports, relative to
// the checkout root the benchmark runs from.
const benchDir = ".bench_build/perfbench"

// workload is one input mix. setup builds everything a round needs from
// the seed (inputs and references) and is timed as setup_s.
type workload struct {
	name  string
	setup func(c setupCtx) (env, error)
}

// setupCtx carries what a set-up needs.
type setupCtx struct {
	seed  int64
	log   *spanLog // records set-up spans when on
	span  sp       // the set-up's root span, parent of its layer spans
	dir   string   // scratch directory for this set-up, inside the checkout
	quick bool     // self-check: smallest round that still runs every path
}

// env is a set-up workload. Its files live in the set-up's directory,
// which the run removes when it ends.
type env interface {
	// round runs the workload's operations once. A failed check counts
	// as a failed op in the result; an error aborts the run.
	round(log *spanLog) (*roundResult, error)
}

// replayer is an env whose traced rounds add a single-goroutine replay of
// each distinct computing op, calling the layers directly (service-mix:
// the server's own stages overlap and cannot be split by spans).
type replayer interface {
	replay(log *spanLog) (*roundResult, error)
}

// roundResult is what one round measured.
type roundResult struct {
	wallNS                      int64     // wall time of the round's ops, checks excluded
	records                     int64     // trace records carried through the user path
	coldMS                      []float64 // latency of each op that computed its result
	cachedMS                    []float64 // latency of each op answered from the result cache
	execMS                      []float64 // server-side execution time per cold job
	waitMS                      []float64 // client latency minus execution per cold job
	attempted, failed, rejected int
	failures                    []string
}

func (r *roundResult) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 8 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

var benchWorkloads = []workload{
	{name: "layout-study", setup: setupLayoutStudy},
	{name: "service-mix", setup: setupServiceMix},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range benchWorkloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options are the parsed command line.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	setups   int
	quick    bool
}

func main() {
	var o options
	var traceFlag int
	var selfcheck bool
	flag.StringVar(&o.workload, "workload", "", "workload to run: layout-study, service-mix, or all")
	flag.Int64Var(&o.seed, "seed", 1, "seed the inputs are generated from")
	flag.IntVar(&o.seconds, "seconds", 10, "how long to measure, in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
	flag.BoolVar(&selfcheck, "selfcheck", false, "run one round of every workload, untraced and traced, and check every metric and output")
	flag.Parse()
	o.trace = traceFlag == 1
	o.setups = setupRepeats
	runtime.GOMAXPROCS(benchProcs)

	if selfcheck {
		if err := runSelfCheck(o.seed); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: self-check failed:", err)
			os.Exit(1)
		}
		fmt.Println("perfbench: self-check passed")
		return
	}
	if o.seconds < 1 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: want --seconds >= 1 and --trace 0|1")
		os.Exit(2)
	}
	names := []string{o.workload}
	if o.workload == "all" {
		names = names[:0]
		for _, w := range benchWorkloads {
			names = append(names, w.name)
		}
	}
	for _, name := range names {
		w, ok := findWorkload(name)
		if !ok {
			fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want layout-study, service-mix or all)\n", name)
			os.Exit(2)
		}
		res, err := runWorkload(w, o)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", name, err)
			os.Exit(1)
		}
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		if len(names) > 1 {
			fmt.Printf("%s ", name)
		}
		fmt.Println(string(line))
	}
}

// run holds everything one workload run collected.
type run struct {
	setupS    []float64
	untraced  []*roundResult
	traced    []*roundResult
	replays   []*roundResult
	untrPeaks []float64
	log       *spanLog
	stealPct  float64 // host CPU steal while the rounds ran
}

// execute sets the workload up o.setups times (spans recorded on the
// last, in trace mode), runs one unmeasured warm-up round, then rounds
// until o.seconds have passed: all untraced with trace off, alternating
// untraced and traced with trace on. minRounds bounds the count below.
func execute(w workload, o options, minRounds int) (*run, error) {
	r := &run{log: newSpanLog()}
	base, err := filepath.Abs(filepath.Join(benchDir, fmt.Sprintf("%s-%d", w.name, os.Getpid())))
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(base)

	var e env
	for i := 0; i < o.setups; i++ {
		dir := filepath.Join(base, fmt.Sprintf("setup%d", i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		// Every set-up starts from the same heap: the previous one's
		// inputs dropped and collected, as in a fresh process.
		e = nil
		runtime.GC()
		r.log.on = o.trace && i == o.setups-1
		root := r.log.root("setup")
		t0 := time.Now()
		e, err = w.setup(setupCtx{seed: o.seed, log: r.log, span: root, dir: dir, quick: o.quick})
		r.setupS = append(r.setupS, time.Since(t0).Seconds())
		r.log.end(root, 0, 0, 0, 0)
		r.log.on = false
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
	}

	if !o.quick {
		if _, err := e.round(r.log); err != nil { // warm-up, not counted
			return nil, err
		}
	}
	total0, steal0 := cpuTicks()
	defer func() {
		total1, steal1 := cpuTicks()
		r.stealPct = 100 * ratio(float64(steal1-steal0), float64(total1-total0))
	}()
	deadline := time.Now().Add(time.Duration(o.seconds) * time.Second)
	for i := 0; ; i++ {
		n := len(r.untraced) + len(r.traced)
		if n >= minRounds && time.Now().After(deadline) {
			break
		}
		traced := o.trace && i%2 == 1
		r.log.on = traced
		heap := startHeapSampler()
		rr, err := e.round(r.log)
		peak := heap.finish()
		r.log.on = false
		if err != nil {
			return nil, err
		}
		if !traced {
			r.untraced = append(r.untraced, rr)
			r.untrPeaks = append(r.untrPeaks, peak)
			continue
		}
		r.traced = append(r.traced, rr)
		if rp, ok := e.(replayer); ok {
			r.log.on = true
			rr, err := rp.replay(r.log)
			r.log.on = false
			if err != nil {
				return nil, err
			}
			r.replays = append(r.replays, rr)
		}
	}
	return r, nil
}

// tally sums the ops of every round and collects their failures.
func (r *run) tally() (attempted, failed int, failures []string) {
	for _, set := range [][]*roundResult{r.untraced, r.traced, r.replays} {
		for _, rr := range set {
			attempted += rr.attempted
			failed += rr.failed
			failures = append(failures, rr.failures...)
		}
	}
	return attempted, failed, failures
}

// runWorkload measures one workload and builds its result line.
func runWorkload(w workload, o options) (*result, error) {
	minRounds := 1
	if o.trace {
		minRounds = 2
	}
	r, err := execute(w, o, minRounds)
	if err != nil {
		return nil, err
	}
	res := &result{}
	var failures []string
	res.Attempted, res.Failed, failures = r.tally()
	for _, f := range failures {
		fmt.Fprintf(os.Stderr, "perfbench: %s: failed op: %s\n", w.name, f)
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	if o.trace {
		res.Metrics = perLayerMetrics(r)
		path := filepath.Join(benchDir, fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, o.seed))
		if err := r.log.write(path, map[string]string{"workload": w.name, "seed": fmt.Sprint(o.seed)}); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
		fmt.Fprintf(os.Stderr, "perfbench: %s: %d spans written to %s\n", w.name, len(r.log.spans), path)
	} else {
		res.Metrics = endToEndMetrics(r)
	}
	prov := collectProvenance(w.name, o)
	prov.Rounds = len(r.untraced) + len(r.traced)
	prov.CPUStealPct = r.stealPct
	for _, rr := range r.untraced {
		prov.ColdOps += len(rr.coldMS)
	}
	pl, err := json.Marshal(map[string]any{"provenance": prov})
	if err != nil {
		return nil, err
	}
	fmt.Println(string(pl))
	return res, nil
}

// endToEndMetrics derives the user-visible metrics from untraced rounds.
// Throughput is all their records over all their wall time: the host's
// speed changes every few seconds, and a median over rounds would follow
// whichever speed held for most of the run.
func endToEndMetrics(r *run) map[string]metric {
	var records, wallNS int64
	var cold []float64
	for _, rr := range r.untraced {
		records += rr.records
		wallNS += rr.wallNS
		cold = append(cold, rr.coldMS...)
	}
	return map[string]metric{
		"setup_s":       {median(r.setupS), "s"},
		"rec_per_s":     {ratio(float64(records), float64(wallNS)/1e9), "rec/s"},
		"op_p50_ms":     {median(cold), "ms"},
		"peak_heap_mib": {median(r.untrPeaks), "MiB"},
	}
}

// perLayerMetrics derives the per-layer metrics from the traced rounds'
// spans (and, for layers that run only while setting up, the set-up's
// spans), the traced rounds' server-side split, and the overhead of
// tracing against the interleaved untraced rounds.
func perLayerMetrics(r *run) map[string]metric {
	ops, setup := r.log.aggregate()
	layer := func(name string) *layerAgg {
		if a := ops[name]; a != nil {
			return a
		}
		if a := setup[name]; a != nil {
			return a
		}
		return &layerAgg{}
	}
	tr, enc, dec := layer("tracer"), layer("encode"), layer("decode")
	val, xf, sim := layer("validate"), layer("xform"), layer("simulate")
	ren, key, get := layer("render"), layer("simcache.key"), layer("simcache.get")

	var opDur, opSelf int64
	for _, name := range []string{"op", "replay"} {
		if a := ops[name]; a != nil {
			opDur += a.durNS
			opSelf += a.selfNS
		}
	}

	var exec, wait, cachedMS []float64
	var jobs, hits, rejected int
	for _, rr := range r.traced {
		exec = append(exec, rr.execMS...)
		wait = append(wait, rr.waitMS...)
		cachedMS = append(cachedMS, rr.cachedMS...)
		jobs += len(rr.coldMS) + len(rr.cachedMS)
		hits += len(rr.cachedMS)
		rejected += rr.rejected
	}
	var walls [2][]float64
	for i, set := range [][]*roundResult{r.untraced, r.traced} {
		for _, rr := range set {
			walls[i] = append(walls[i], float64(rr.wallNS))
		}
	}
	overhead := 100 * (ratio(median(walls[1]), median(walls[0])) - 1)

	nsPer := func(a *layerAgg, per int64) float64 { return ratio(float64(a.selfNS), float64(per)) }
	perOp := func(x int64, n int) float64 { return ratio(float64(x), float64(n)) }
	return map[string]metric{
		"tracer.records":           {float64(tr.recs), "count"},
		"tracer.ns_per_rec":        {nsPer(tr, tr.recs), "ns/rec"},
		"tracer.allocs_per_rec":    {ratio(float64(tr.allocs), float64(tr.recs)), "allocs/rec"},
		"encode.ns_per_rec":        {nsPer(enc, enc.recs), "ns/rec"},
		"encode.bytes_per_rec":     {ratio(float64(enc.bytes), float64(enc.recs)), "B/rec"},
		"decode.records":           {float64(dec.recs), "count"},
		"decode.ns_per_rec":        {nsPer(dec, dec.recs), "ns/rec"},
		"decode.allocs_per_rec":    {ratio(float64(dec.allocs), float64(dec.recs)), "allocs/rec"},
		"validate.ns_per_rec":      {nsPer(val, val.recs), "ns/rec"},
		"xform.records_in":         {float64(xf.recs), "count"},
		"xform.out_per_in":         {ratio(float64(xf.out), float64(xf.recs)), "ratio"},
		"xform.ns_per_rec":         {nsPer(xf, xf.recs), "ns/rec"},
		"simulate.cfg_records":     {float64(sim.cfgs), "count"},
		"simulate.ns_per_cfg_rec":  {nsPer(sim, sim.cfgs), "ns/cfg-rec"},
		"simulate.allocs_per_rec":  {ratio(float64(sim.allocs), float64(sim.recs)), "allocs/rec"},
		"render.ms":                {perOp(ren.selfNS, ren.n) / 1e6, "ms/report"},
		"render.bytes":             {perOp(ren.bytes, ren.n), "B/report"},
		"simcache.key_ns_per_byte": {nsPer(key, key.bytes), "ns/B"},
		"simcache.get_ms":          {perOp(get.selfNS, get.n) / 1e6, "ms/lookup"},
		"simcache.hit_ratio":       {ratio(float64(hits), float64(jobs)), "ratio"},
		"server.exec_ms_p50":       {median(exec), "ms/job"},
		"server.wait_ms_p50":       {median(wait), "ms/job"},
		"server.cached_job_ms_p50": {median(cachedMS), "ms/job"},
		"server.rejected":          {float64(rejected), "count"},
		"tracing.overhead_pct":     {overhead, "%"},
		"op.unattributed_pct":      {100 * ratio(float64(opSelf), float64(opDur)), "%"},
	}
}

// runSelfCheck runs one round of every workload untraced and one traced,
// then asserts that every metric BENCHMARK.json names is emitted with its
// unit and a finite value, and that every correctness check passed.
func runSelfCheck(seed int64) error {
	spec, err := readSpec("BENCHMARK.json")
	if err != nil {
		return err
	}
	var problems []string
	for _, w := range benchWorkloads {
		o := options{workload: w.name, seed: seed, seconds: 0, trace: true, setups: 1, quick: true}
		t0 := time.Now()
		r, err := execute(w, o, 2)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		attempted, failed, failures := r.tally()
		for _, f := range failures {
			problems = append(problems, fmt.Sprintf("%s: failed op: %s", w.name, f))
		}
		if attempted == 0 {
			problems = append(problems, w.name+": no op attempted")
		}
		check := func(kind string, want []specMetric, got map[string]metric) {
			for _, m := range want {
				g, ok := got[m.Name]
				switch {
				case !ok:
					problems = append(problems, fmt.Sprintf("%s: %s metric %s missing", w.name, kind, m.Name))
				case g.Unit != m.Unit:
					problems = append(problems, fmt.Sprintf("%s: %s has unit %q, BENCHMARK.json says %q", w.name, m.Name, g.Unit, m.Unit))
				case math.IsNaN(g.Value) || math.IsInf(g.Value, 0):
					problems = append(problems, fmt.Sprintf("%s: %s is %v", w.name, m.Name, g.Value))
				case kind == "end-to-end" && g.Value <= 0:
					problems = append(problems, fmt.Sprintf("%s: end-to-end %s is %v, want > 0", w.name, m.Name, g.Value))
				}
			}
			if len(got) != len(want) {
				problems = append(problems, fmt.Sprintf("%s: %d %s metrics emitted, BENCHMARK.json names %d", w.name, len(got), kind, len(want)))
			}
		}
		check("end-to-end", spec.EndToEnd, endToEndMetrics(r))
		check("per-layer", spec.PerLayer, perLayerMetrics(r))
		fmt.Fprintf(os.Stderr, "perfbench: self-check %s: %d ops, %d failed, %.1fs\n", w.name, attempted, failed, time.Since(t0).Seconds())
	}
	if len(problems) > 0 {
		sort.Strings(problems)
		return errors.New(strings.Join(problems, "\n  "))
	}
	return nil
}

// specMetric is one metric entry of BENCHMARK.json.
type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type benchSpec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

func readSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}
