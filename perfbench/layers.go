package main

import (
	"bytes"
	"fmt"
	"time"

	"tracedst/internal/cache"
	"tracedst/internal/minic"
	"tracedst/internal/rules"
	"tracedst/internal/trace"
	"tracedst/internal/tracer"
	"tracedst/internal/xform"
)

// Calls into the layers that more than one workload makes, each wrapped in
// a span named after the layer.

// traceProgram is the tracer layer: minic.Parse + tracer.RunProgram.
func traceProgram(log *spanLog, parent sp, src string, defs map[string]string) (*tracer.Result, error) {
	h := log.begin("tracer", parent)
	prog, err := minic.Parse(src, defs)
	var res *tracer.Result
	if err == nil {
		res, err = tracer.RunProgram(prog, tracer.Options{})
	}
	var n int64
	if res != nil {
		n = int64(len(res.Records))
	}
	log.end(h, n, 0, 0, 0)
	return res, err
}

// encode is the encode layer: trace.Writer for Gleipnir text, as gltrace
// writes it, or BinaryWriter for .glb. The .glb carries the block-index
// footer, so the result cache can key it without walking its records.
func encode(log *spanLog, parent sp, format trace.FileFormat, hdr trace.Header, recs []trace.Record) ([]byte, error) {
	h := log.begin("encode", parent)
	var buf bytes.Buffer
	var w trace.RecordWriter = trace.NewWriter(&buf)
	if format == trace.FormatBinary {
		bw := trace.NewBinaryWriter(&buf)
		bw.EnableIndex()
		w = bw
	}
	err := w.WriteHeader(hdr)
	for i := 0; err == nil && i < len(recs); i++ {
		err = w.Write(&recs[i])
	}
	if err == nil {
		err = w.Flush()
	}
	log.end(h, int64(len(recs)), 0, int64(buf.Len()), 0)
	return buf.Bytes(), err
}

// nextBatch is the decode layer: one RecordSource.NextBatch call.
func nextBatch(log *spanLog, parent sp, src trace.RecordSource) ([]trace.Record, error) {
	h := log.begin("decode", parent)
	batch, err := src.NextBatch()
	log.end(h, int64(len(batch)), 0, 0, 0)
	return batch, err
}

// newEngine is the xform layer's set-up: rules.Parse + xform.New.
func newEngine(log *spanLog, parent sp, ruleSrc string) (*xform.Engine, error) {
	h := log.begin("xform", parent)
	defer log.end(h, 0, 0, 0, 0)
	rule, err := rules.Parse(ruleSrc)
	if err != nil {
		return nil, err
	}
	return xform.New(xform.Options{}, rule)
}

// transform is the xform layer over one batch: Engine.Transform on every
// record, the results appended to out[:0].
func transform(log *spanLog, parent sp, eng *xform.Engine, batch, out []trace.Record) ([]trace.Record, error) {
	h := log.begin("xform", parent)
	out = out[:0]
	for i := range batch {
		recs, err := eng.Transform(&batch[i])
		if err != nil {
			log.end(h, 0, 0, 0, 0)
			return out, err
		}
		out = append(out, recs...)
	}
	log.end(h, int64(len(batch)), int64(len(out)), 0, 0)
	return out, nil
}

// sameRecords reports whether got equals want record for record, and
// describes the first difference.
func sameRecords(got, want []trace.Record) (bool, string) {
	if len(got) != len(want) {
		return false, fmt.Sprintf("%d records, want %d", len(got), len(want))
	}
	for i := range got {
		if !got[i].Equal(&want[i]) {
			return false, fmt.Sprintf("record %d is %q, want %q", i, got[i].String(), want[i].String())
		}
	}
	return true, ""
}

// window returns up to n records of recs from off on, clipped to recs.
func window(recs []trace.Record, off, n int) []trace.Record {
	lo := min(off, len(recs))
	return recs[lo:min(lo+n, len(recs))]
}

// opClock times one op with the benchmark's own checks taken out.
type opClock struct {
	start  time.Time
	paused time.Duration
}

func startOp() *opClock { return &opClock{start: time.Now()} }

// check runs f as a verification step: its time is excluded from the
// op's wall time, and a traced op records it as a "check" span so the
// op's unattributed time does not absorb it.
func (c *opClock) check(log *spanLog, parent sp, f func()) {
	t := time.Now()
	h := log.begin("check", parent)
	f()
	log.end(h, 0, 0, 0, 0)
	c.paused += time.Since(t)
}

func (c *opClock) elapsed() time.Duration { return time.Since(c.start) - c.paused }

// geometry builds an L1 configuration from the paper's figure cache with
// the given capacity, block size, associativity and replacement policy,
// and checks that it stays inside the multi-config kernel's envelope (one
// level, no prefetch, no miss classification).
func geometry(name string, size, bsize int64, assoc int, repl string) (cache.Config, error) {
	cfg := cache.Paper32KDirect()
	cfg.Name = name
	cfg.Size = size
	cfg.BlockSize = bsize
	cfg.Assoc = assoc
	var err error
	if cfg.Repl, err = cache.ParseRepl(repl); err != nil {
		return cfg, err
	}
	if err := cfg.Validate(); err != nil {
		return cfg, err
	}
	return cfg, cache.CanMulti(cfg)
}
