package main

import (
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// median returns the median of xs, averaging the middle two of an even
// count (xs is not modified). An empty slice gives 0, so a result stays
// printable when no op of a kind completed.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return (s[(len(s)-1)/2] + s[len(s)/2]) / 2
}

// ratio divides, returning 0 when the denominator is 0 (a layer that did
// no work on a workload reports zero rather than NaN).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

const (
	heapObjectsMetric  = "/memory/classes/heap/objects:bytes"
	allocObjectsMetric = "/gc/heap/allocs:objects"
)

// heapSampler polls the live-plus-unswept heap object bytes while a round
// runs and keeps the peak. runtime/metrics reads do not stop the world, so
// sampling every two milliseconds costs the measured code little.
type heapSampler struct {
	stop chan struct{}
	wg   sync.WaitGroup
	peak uint64
}

const heapSampleEvery = 2 * time.Millisecond

// startHeapSampler collects garbage first, so each round starts from the
// heap its set-up left live, as a fresh process would, and then samples.
func startHeapSampler() *heapSampler {
	runtime.GC()
	h := &heapSampler{stop: make(chan struct{})}
	sample := []metrics.Sample{{Name: heapObjectsMetric}}
	read := func() {
		metrics.Read(sample)
		if v := sample[0].Value.Uint64(); v > h.peak {
			h.peak = v
		}
	}
	read()
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		t := time.NewTicker(heapSampleEvery)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				read()
				return
			case <-t.C:
				read()
			}
		}
	}()
	return h
}

// finish stops sampling and returns the peak in MiB.
func (h *heapSampler) finish() float64 {
	close(h.stop)
	h.wg.Wait()
	return float64(h.peak) / (1 << 20)
}

// allocCounter reads the process-wide count of heap objects allocated so
// far. It is read only in traced rounds, around single-goroutine layer
// calls, so the difference between two reads is the call's allocations.
type allocCounter struct{ sample []metrics.Sample }

func newAllocCounter() *allocCounter {
	return &allocCounter{sample: []metrics.Sample{{Name: allocObjectsMetric}}}
}

func (a *allocCounter) read() int64 {
	metrics.Read(a.sample)
	return int64(a.sample[0].Value.Uint64())
}

// cpuTicks returns the total and the steal jiffies of all CPUs from
// /proc/stat (0, 0 where there is none).
func cpuTicks() (total, steal int64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, _ := strconv.ParseInt(f, 10, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return total, steal
}
