package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"

	"tracedst/internal/telemetry"
)

// Spans are recorded by the benchmark around its own calls into each
// layer, kept in memory, and written at the end in the form of
// schema/spans.schema.json (one JSON object per line), so
// tools/metricscheck -spans and tools/spanview -summary read them. The
// program's own spans are not used: inside the streaming pipeline they
// overlap and cannot give a layer's self time.

// span is one recorded interval. Counters ride along with the interval so
// ratios such as ns/record are taken where the work happens.
type span struct {
	trace  uint64
	id     uint64
	parent uint64 // 0 for a root
	name   string
	start  int64 // unix ns
	end    int64
	recs   int64 // records the call consumed
	out    int64 // records the call produced (xform)
	bytes  int64 // bytes produced or consumed
	cfgs   int64 // record×config pairs simulated
	allocs int64 // heap objects allocated during the call
}

// spanLog records spans when on; when off every method is a cheap no-op
// returning the zero handle, so untraced rounds run the same code. It is
// safe for concurrent use (service-mix clients record side by side).
type spanLog struct {
	on     bool // set only between rounds, never while one runs
	mu     sync.Mutex
	spans  []span
	nextID uint64
	traces uint64
	base   time.Time
	baseNS int64
	allocs *allocCounter
}

func newSpanLog() *spanLog {
	now := time.Now()
	return &spanLog{base: now, baseNS: now.UnixNano(), allocs: newAllocCounter()}
}

// now returns a monotonic clock reading expressed as unix nanoseconds.
func (l *spanLog) now() int64 { return l.baseNS + int64(time.Since(l.base)) }

// sp is a handle to an open span: an index into spanLog.spans plus one,
// so the zero value means "not recording".
type sp int

// root opens a span that starts a new trace (one per op or set-up).
func (l *spanLog) root(name string) sp {
	if !l.on {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.traces++
	return l.open(name, l.traces, 0)
}

// begin opens a child span of parent, in parent's trace.
func (l *spanLog) begin(name string, parent sp) sp {
	if !l.on || parent == 0 {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	p := &l.spans[parent-1]
	return l.open(name, p.trace, p.id)
}

func (l *spanLog) open(name string, trace, parent uint64) sp {
	l.nextID++
	l.spans = append(l.spans, span{trace: trace, id: l.nextID, parent: parent, name: name,
		allocs: l.allocs.read(), start: l.now()})
	return sp(len(l.spans))
}

// end closes the span; recs/out/bytes/cfgs are its work counters.
func (l *spanLog) end(h sp, recs, out, bytes, cfgs int64) {
	if h == 0 {
		return
	}
	now := l.now()
	l.mu.Lock()
	defer l.mu.Unlock()
	s := &l.spans[h-1]
	s.end = now
	s.allocs = l.allocs.read() - s.allocs
	s.recs, s.out, s.bytes, s.cfgs = recs, out, bytes, cfgs
}

// layerAgg sums the self time and counters of every span of one name.
type layerAgg struct {
	n                              int
	selfNS, durNS                  int64
	recs, out, bytes, cfgs, allocs int64
}

// aggregate computes each span's self time — its duration minus the part
// of its interval that its children cover — and sums per span name,
// separately for spans under set-up roots and spans under op roots.
func (l *spanLog) aggregate() (ops, setup map[string]*layerAgg) {
	ops, setup = map[string]*layerAgg{}, map[string]*layerAgg{}
	byID := make(map[uint64]int, len(l.spans))
	kids := make(map[uint64][]int, len(l.spans))
	for i := range l.spans {
		byID[l.spans[i].id] = i
		if p := l.spans[i].parent; p != 0 {
			kids[p] = append(kids[p], i)
		}
	}
	rootName := func(i int) string {
		for l.spans[i].parent != 0 {
			i = byID[l.spans[i].parent]
		}
		return l.spans[i].name
	}
	for i := range l.spans {
		s := &l.spans[i]
		dur := s.end - s.start
		self := dur - covered(l.spans, kids[s.id], s.start, s.end)
		dst := ops
		if rootName(i) == "setup" {
			dst = setup
		}
		a := dst[s.name]
		if a == nil {
			a = &layerAgg{}
			dst[s.name] = a
		}
		a.n++
		a.selfNS += self
		a.durNS += dur
		a.recs += s.recs
		a.out += s.out
		a.bytes += s.bytes
		a.cfgs += s.cfgs
		a.allocs += s.allocs
	}
	return ops, setup
}

// covered returns how much of [lo,hi] the union of the given spans covers.
func covered(all []span, idx []int, lo, hi int64) int64 {
	if len(idx) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(idx))
	for _, i := range idx {
		a, b := max(all[i].start, lo), min(all[i].end, hi)
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB int64
	for k, v := range iv {
		if k == 0 || v[0] > curB {
			total += curB - curA
			curA, curB = v[0], v[1]
			continue
		}
		curB = max(curB, v[1])
	}
	return total + curB - curA
}

// write exports every span to path through telemetry.SpanExporter, which
// writes schema/spans.schema.json JSONL atomically. The root spans carry
// attrs; every span carries its non-zero work counters.
func (l *spanLog) write(path string, attrs map[string]string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	exp := telemetry.NewSpanExporter(path)
	exp.SetCap(len(l.spans))
	for i := range l.spans {
		s := &l.spans[i]
		ev := telemetry.SpanEvent{
			Trace:   fmt.Sprintf("%032x", s.trace),
			Span:    fmt.Sprintf("%016x", s.id),
			Name:    s.name,
			StartNS: s.start,
			EndNS:   s.end,
			Attrs:   map[string]string{},
		}
		if s.parent != 0 {
			ev.Parent = fmt.Sprintf("%016x", s.parent)
		} else {
			for k, v := range attrs {
				ev.Attrs[k] = v
			}
		}
		for k, v := range map[string]int64{"records": s.recs, "records_out": s.out, "bytes": s.bytes, "cfg_records": s.cfgs, "allocs": s.allocs} {
			if v != 0 {
				ev.Attrs[k] = strconv.FormatInt(v, 10)
			}
		}
		if len(ev.Attrs) == 0 {
			ev.Attrs = nil
		}
		exp.Record(ev)
	}
	return exp.Flush()
}
