package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"tracedst/internal/cache"
	"tracedst/internal/cliutil"
	"tracedst/internal/dinero"
	"tracedst/internal/server"
	"tracedst/internal/simcache"
	"tracedst/internal/telemetry"
	"tracedst/internal/trace"
	"tracedst/internal/workloads"
	"tracedst/internal/xform"
)

// service-mix is a closed loop of two clients against an in-process
// tracedstd with its shipped defaults (two workers, result cache on),
// except that the rate limit is set above the offered load. Each client
// uploads seeded .glb traces with ?wait=1 and fetches the report. Half of
// the uploads repeat an earlier (trace, config, rule) triple of the same
// client and must be answered from the result cache; about a third carry
// a paper rule. One round is one server lifetime on a fresh state
// directory running the whole schedule, so every round's cold jobs are
// cold again.

// smClients is the number of concurrent clients; each holds one
// connection, so the offered concurrency equals the server's 2 workers.
const smClients = 2

// smJobsPerClient is the schedule length per client and round: half
// cold, half repeats.
const smJobsPerClient = 24

// smRate is the per-client upload rate limit: far above what two closed
// loop clients offer, so it never refuses, but the limiter stays on.
const smRate = 10000

type smTrace struct {
	name    string
	path    string // the .glb, also uploaded as the request body
	glb     []byte
	records int64
	rule    string // the matching paper rule ("" for other programs)
	recs    []trace.Record
}

// smJob is one distinct (trace, config, rule) triple.
type smJob struct {
	tr     *smTrace
	config string // config= query, a ParseConfigSpec override
	rule   string
	report string // the reference report
}

// smUpload is one scheduled upload of a triple.
type smUpload struct {
	*smJob
	cached bool // a repeat: the server must answer from its result cache
}

type serviceMix struct {
	dir     string
	base    cache.Config
	traces  []*smTrace
	cold    []*smJob              // every distinct triple
	clients [smClients][]smUpload // each client's schedule
	rounds  int
}

func setupServiceMix(c setupCtx) (env, error) {
	rng := rand.New(rand.NewSource(c.seed))
	base, err := shippedBaseConfig()
	if err != nil {
		return nil, err
	}
	sm := &serviceMix{dir: c.dir, base: base}

	// The paper programs (rule-capable) and four other kernels, each about
	// 20k records; the seed moves every size by up to 3%.
	scale := func(n int) string { return fmt.Sprint(n + rng.Intn(n/33+1)) }
	programs := []struct {
		name, src string
		defs      map[string]string
		rule      func(n int) string
	}{
		{"T1", workloads.Trans1SoA, map[string]string{"LEN": scale(2500)}, workloads.RuleTrans1ForLen},
		{"T2", workloads.Trans2Inline, map[string]string{"LEN": scale(1800)}, workloads.RuleTrans2ForLen},
		{"T3", workloads.Trans3Contiguous, map[string]string{"LEN": scale(4000)}, func(n int) string { return workloads.RuleTrans3ForLen(n, 16, 8) }},
		{"trans2-hot", workloads.Trans2HotLoop, map[string]string{"LEN": scale(4000)}, workloads.RuleTrans2ForLen},
		{"stencil", workloads.Stencil, map[string]string{"N": scale(2000)}, nil},
		{"particles", workloads.ParticlesAoS, map[string]string{"N": scale(2000)}, nil},
		{"histogram", workloads.Histogram, map[string]string{"N": scale(4000), "BINS": "256"}, nil},
		{"matmul", workloads.MatMul, map[string]string{"N": "13"}, nil},
	}
	for i, p := range programs {
		res, err := traceProgram(c.log, c.span, p.src, p.defs)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.name, err)
		}
		glb, err := encode(c.log, c.span, trace.FormatBinary, res.Header, res.Records)
		if err != nil {
			return nil, err
		}
		t := &smTrace{name: p.name, path: filepath.Join(c.dir, fmt.Sprintf("trace%d.glb", i)), glb: glb,
			records: int64(len(res.Records)), recs: res.Records}
		if p.rule != nil {
			n, err := strconv.Atoi(p.defs["LEN"])
			if err != nil {
				return nil, err
			}
			t.rule = p.rule(n)
		}
		if err := os.WriteFile(t.path, glb, 0o644); err != nil {
			return nil, err
		}
		sm.traces = append(sm.traces, t)
	}

	// Distinct cold triples: every trace three times, each time with
	// another of the 24 geometries (capacity × block size × ways, dealt
	// in a seeded order); two of each paper program's three carry its
	// rule, a third of all jobs. The self-check keeps the first four.
	var specs []string
	for _, size := range []int{4, 16, 64} {
		for _, bsize := range []int{32, 64} {
			for _, assoc := range []int{1, 2, 4, 8} {
				specs = append(specs, fmt.Sprintf("size=%dk,bsize=%d,assoc=%d", size, bsize, assoc))
			}
		}
	}
	rng.Shuffle(len(specs), func(i, j int) { specs[i], specs[j] = specs[j], specs[i] })
	for k, spec := range specs {
		t := sm.traces[k%len(sm.traces)]
		j := &smJob{tr: t, config: spec}
		if k/len(sm.traces) < 2 {
			j.rule = t.rule
		}
		sm.cold = append(sm.cold, j)
	}
	rng.Shuffle(len(sm.cold), func(i, j int) { sm.cold[i], sm.cold[j] = sm.cold[j], sm.cold[i] })
	perClient := smJobsPerClient
	if c.quick {
		perClient = 2
		sm.cold = sm.cold[:smClients*perClient/2]
	}
	// Each client alternates cold, repeat, cold, repeat…; a repeat names
	// one of the client's own earlier triples, whose job has finished.
	for ci := range sm.clients {
		mine := sm.cold[ci*perClient/2 : (ci+1)*perClient/2]
		for k, j := range mine {
			sm.clients[ci] = append(sm.clients[ci], smUpload{j, false}, smUpload{mine[rng.Intn(k+1)], true})
		}
	}

	ref := c.log.begin("reference", c.span)
	defer c.log.end(ref, 0, 0, 0, 0)
	for _, j := range sm.cold {
		cfg, err := cliutil.ParseConfigSpec(sm.base, j.config)
		if err != nil {
			return nil, err
		}
		recs := j.tr.recs
		if j.rule != "" {
			eng, err := newEngine(c.log, 0, j.rule)
			if err != nil {
				return nil, err
			}
			if recs, err = eng.TransformAll(recs); err != nil {
				return nil, err
			}
		}
		_, sim, err := simulateRef(cfg, recs)
		if err != nil {
			return nil, err
		}
		j.report = sim.Report()
	}
	for _, t := range sm.traces {
		// Codec round trip through the whole-buffer decoder, an
		// independent path from the streaming source the server uses.
		_, _, back, err := trace.DecodeBytes(t.glb, trace.DecodeOptions{}, 1)
		if err != nil {
			return nil, fmt.Errorf("%s: decoding the set-up .glb: %w", t.name, err)
		}
		if ok, why := sameRecords(back, t.recs); !ok {
			return nil, fmt.Errorf("%s: .glb round trip: %s", t.name, why)
		}
		t.recs = nil
	}
	return sm, nil
}

// shippedBaseConfig is the L1 geometry tracedstd runs with when no flag
// overrides it.
func shippedBaseConfig() (cache.Config, error) {
	fs := flag.NewFlagSet("tracedstd", flag.ContinueOnError)
	cf := cliutil.NewCacheFlags(fs, "l1", "32k", 32, 1)
	if err := fs.Parse(nil); err != nil {
		return cache.Config{}, err
	}
	return cf.Build()
}

// jobReply is the part of the job JSON the clients read.
type jobReply struct {
	ID        string `json:"id"`
	State     string `json:"state"`
	Cached    bool   `json:"cached"`
	Error     string `json:"error"`
	Resources *struct {
		WallNS int64 `json:"wall_ns"`
	} `json:"resources"`
}

func (sm *serviceMix) round(log *spanLog) (*roundResult, error) {
	sm.rounds++
	dir := filepath.Join(sm.dir, fmt.Sprintf("round%d", sm.rounds))
	defer os.RemoveAll(dir)
	srv, err := server.New(server.Config{StateDir: dir, RatePerSec: smRate, Burst: smRate, BaseConfig: sm.base})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Shutdown(context.Background())
		return nil, err
	}
	hs := &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	baseURL := "http://" + ln.Addr().String()

	results := make([]roundResult, smClients)
	var wg sync.WaitGroup
	t0 := time.Now()
	for ci := range sm.clients {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			sm.client(log, baseURL, ci, &results[ci])
		}(ci)
	}
	wg.Wait()
	wall := time.Since(t0)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	herr := hs.Shutdown(ctx)
	serr := srv.Shutdown(ctx)
	if err := <-served; !errors.Is(err, http.ErrServerClosed) {
		return nil, err
	}
	if herr != nil || serr != nil {
		return nil, fmt.Errorf("stopping the server: %v, %v", herr, serr)
	}

	rr := &roundResult{wallNS: wall.Nanoseconds()}
	for _, cr := range results {
		rr.coldMS = append(rr.coldMS, cr.coldMS...)
		rr.cachedMS = append(rr.cachedMS, cr.cachedMS...)
		rr.execMS = append(rr.execMS, cr.execMS...)
		rr.waitMS = append(rr.waitMS, cr.waitMS...)
		rr.records += cr.records
		rr.attempted += cr.attempted
		rr.failed += cr.failed
		rr.rejected += cr.rejected
		rr.failures = append(rr.failures, cr.failures...)
	}
	return rr, nil
}

// client runs one client's schedule in a closed loop over one connection.
func (sm *serviceMix) client(log *spanLog, baseURL string, ci int, out *roundResult) {
	hc := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}}
	defer hc.CloseIdleConnections()
	for _, j := range sm.clients[ci] {
		out.attempted++
		t := time.Now()
		root := log.root("job")
		reply, report, status, err := sm.submit(log, root, hc, baseURL, ci, j)
		lat := time.Since(t)
		log.end(root, j.tr.records, 0, int64(len(j.tr.glb)), 0)
		if status != 0 {
			out.rejected++
		}
		switch {
		case err != nil:
			out.fail("%s %s: %v", j.tr.name, j.config, err)
			continue
		case reply.State != string(server.StateDone):
			out.fail("%s %s: job %s is %s: %s", j.tr.name, j.config, reply.ID, reply.State, reply.Error)
			continue
		case reply.Cached != j.cached:
			out.fail("%s %s: job %s cached=%v, want %v", j.tr.name, j.config, reply.ID, reply.Cached, j.cached)
		case report != j.report:
			out.fail("%s %s: job %s report differs from the local simulation", j.tr.name, j.config, reply.ID)
		}
		ms := float64(lat.Nanoseconds()) / 1e6
		if j.cached {
			out.cachedMS = append(out.cachedMS, ms)
		} else {
			out.coldMS = append(out.coldMS, ms)
			// The exec/wait split is for cold jobs only: cache hits carry
			// resources too, and mixing both kinds would describe neither.
			if reply.Resources != nil {
				exec := float64(reply.Resources.WallNS) / 1e6
				out.execMS = append(out.execMS, exec)
				out.waitMS = append(out.waitMS, ms-exec)
			}
		}
		out.records += j.tr.records
	}
}

// submit uploads one trace with ?wait=1 and fetches its report. On a
// failed request status is its HTTP status (0 when none came back).
func (sm *serviceMix) submit(log *spanLog, root sp, hc *http.Client, baseURL string, ci int, j smUpload) (jobReply, string, int, error) {
	var reply jobReply
	q := url.Values{"wait": {"1"}, "config": {j.config}}
	if j.rule != "" {
		q.Set("rule", j.rule)
	}
	h := log.begin("server.upload", root)
	req, err := http.NewRequest(http.MethodPost, baseURL+"/jobs?"+q.Encode(), bytes.NewReader(j.tr.glb))
	if err != nil {
		log.end(h, 0, 0, 0, 0)
		return reply, "", 0, err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	req.Header.Set("X-Client-ID", fmt.Sprintf("perfbench-%d", ci))
	body, status, err := do(hc, req)
	log.end(h, 0, 0, int64(len(j.tr.glb)), 0)
	if err != nil {
		return reply, "", status, err
	}
	if err := json.Unmarshal(body, &reply); err != nil {
		return reply, "", 0, fmt.Errorf("job reply: %w", err)
	}

	h = log.begin("server.report", root)
	req, err = http.NewRequest(http.MethodGet, baseURL+"/jobs/"+reply.ID+"/report", nil)
	if err != nil {
		log.end(h, 0, 0, 0, 0)
		return reply, "", 0, err
	}
	body, status, err = do(hc, req)
	log.end(h, 0, 0, int64(len(body)), 0)
	if err != nil {
		return reply, "", status, err
	}
	return reply, string(body), 0, nil
}

// do sends req and reads the whole body; a non-2xx answer is an error.
func do(hc *http.Client, req *http.Request) ([]byte, int, error) {
	resp, err := hc.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, resp.StatusCode, err
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return nil, resp.StatusCode, fmt.Errorf("%s %s: %s: %s", req.Method, req.URL.Path, resp.Status, bytes.TrimSpace(body))
	}
	return body, resp.StatusCode, nil
}

// replay re-runs every distinct cold job's pipeline on one goroutine,
// calling the layers the server's job runs, in its order, so each gets its
// own span: simcache key and lookup, validate, decode, xform, simulate,
// render, store; then the repeat's key and lookup, which must hit.
func (sm *serviceMix) replay(log *spanLog) (*roundResult, error) {
	dir := filepath.Join(sm.dir, fmt.Sprintf("replay%d", sm.rounds))
	defer os.RemoveAll(dir)
	store, err := simcache.Open(dir, telemetry.NewRegistry())
	if err != nil {
		return nil, err
	}
	rr := &roundResult{}
	for _, j := range sm.cold {
		rr.attempted++
		root := log.root("replay")
		err := sm.replayJob(log, root, store, j)
		log.end(root, j.tr.records, 0, int64(len(j.tr.glb)), 0)
		if err != nil {
			rr.fail("replay %s %s: %v", j.tr.name, j.config, err)
		}
	}
	return rr, nil
}

func (sm *serviceMix) replayJob(log *spanLog, root sp, store *simcache.Store, j *smJob) error {
	cfg, err := cliutil.ParseConfigSpec(sm.base, j.config)
	if err != nil {
		return err
	}
	key := func() (simcache.Key, error) {
		h := log.begin("simcache.key", root)
		defer log.end(h, 0, 0, int64(len(j.tr.glb)), 0)
		tr, err := trace.OpenIndexed(j.tr.path)
		if err != nil {
			return simcache.Key{}, err
		}
		defer tr.Close()
		th, err := simcache.HashIndexed(tr)
		return simcache.Key{Trace: th, Config: simcache.ConfigSig(cfg), Rule: simcache.HashText(j.rule),
			Engine: simcache.EngineVersion}, err
	}
	get := func(k simcache.Key) (simcache.Entry, bool, error) {
		h := log.begin("simcache.get", root)
		defer log.end(h, 0, 0, 0, 0)
		return store.Get(k)
	}

	k, err := key()
	if err != nil {
		return err
	}
	if _, hit, err := get(k); err != nil || hit {
		return fmt.Errorf("cold lookup: hit=%v err=%v", hit, err)
	}

	h := log.begin("validate", root)
	f, err := os.Open(j.tr.path)
	if err != nil {
		log.end(h, 0, 0, 0, 0)
		return err
	}
	rep, err := trace.ValidateCtx(context.Background(), f, trace.ValidateOptions{SkipRegionChecks: true})
	f.Close()
	if err != nil {
		log.end(h, 0, 0, 0, 0)
		return err
	}
	log.end(h, int64(rep.Records), 0, int64(len(j.tr.glb)), 0)
	if !rep.OK() {
		return fmt.Errorf("validation: %s", rep.Summary())
	}

	var eng *xform.Engine
	if j.rule != "" {
		if eng, err = newEngine(log, root, j.rule); err != nil {
			return err
		}
	}
	sim, err := dinero.New(dinero.Options{L1: cfg})
	if err != nil {
		return err
	}
	f, err = os.Open(j.tr.path)
	if err != nil {
		return err
	}
	defer f.Close()
	src, _, err := trace.OpenSource(f, trace.DecodeOptions{}, 0)
	if err != nil {
		return err
	}
	var out []trace.Record
	for {
		batch, err := nextBatch(log, root, src)
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return err
		}
		if eng != nil {
			if out, err = transform(log, root, eng, batch, out); err != nil {
				return err
			}
			batch = out
		}
		h := log.begin("simulate", root)
		sim.Process(batch)
		log.end(h, int64(len(batch)), 0, 0, int64(len(batch)))
	}
	h = log.begin("render", root)
	report := sim.Report()
	log.end(h, 0, 0, int64(len(report)), 0)
	if report != j.report {
		return errors.New("report differs from the local simulation")
	}

	h = log.begin("simcache.put", root)
	err = store.Put(k, simcache.Entry{Records: sim.Records(), Report: report})
	log.end(h, 0, 0, 0, 0)
	if err != nil {
		return err
	}
	if k, err = key(); err != nil {
		return err
	}
	e, hit, err := get(k)
	if err != nil || !hit || e.Report != j.report {
		return fmt.Errorf("repeat lookup: hit=%v err=%v", hit, err)
	}
	return nil
}
