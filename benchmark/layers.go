package main

import (
	"math/rand"
	"runtime/metrics"
	"sync"
	"time"

	"iolap/internal/agg"
	"iolap/internal/bootstrap"
)

// named is one reported metric.
type named struct {
	name  string
	value float64
	unit  string
}

func mb(b int64) float64 { return float64(b) / (1 << 20) }

const heapObjects = "/memory/classes/heap/objects:bytes"

// heapSampler tracks the live-plus-unswept heap object bytes, sampled
// after every Step or Next, as one maximum per window: a pass of an engine
// workload, or window of wall time on serve. The peak is the median of the
// window maxima, because a single window's maximum depends on where the GC
// cycles fell. Safe for concurrent samplers.
type heapSampler struct {
	mu     sync.Mutex
	window time.Duration // 0: windows are closed by closeWindow only
	start  time.Time
	cur    uint64
	peaks  []float64
}

func (h *heapSampler) sample() {
	s := []metrics.Sample{{Name: heapObjects}}
	metrics.Read(s)
	v := s[0].Value.Uint64()
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.start.IsZero() {
		h.start = time.Now()
	}
	h.cur = max(h.cur, v)
	if h.window > 0 && time.Since(h.start) >= h.window {
		h.closeLocked()
	}
}

func (h *heapSampler) closeWindow() {
	h.mu.Lock()
	h.closeLocked()
	h.mu.Unlock()
}

func (h *heapSampler) closeLocked() {
	if h.cur > 0 {
		h.peaks = append(h.peaks, mb(int64(h.cur)))
	}
	h.cur, h.start = 0, time.Now()
}

// peakMB is the median window maximum; the open window counts only when
// no window closed.
func (h *heapSampler) peakMB() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.peaks) == 0 {
		return mb(int64(h.cur))
	}
	return median(h.peaks)
}

// runtimeCounters is a reading of the runtime's cumulative counters.
type runtimeCounters struct {
	gcCPU, totalCPU    float64
	allocBytes, cycles uint64
}

// runtimeDelta is the change of runtimeCounters over a timed region.
type runtimeDelta runtimeCounters

func readRuntime() runtimeCounters {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(s)
	return runtimeCounters{
		gcCPU: s[0].Value.Float64(), totalCPU: s[1].Value.Float64(),
		allocBytes: s[2].Value.Uint64(), cycles: s[3].Value.Uint64(),
	}
}

func (c runtimeCounters) since(b runtimeCounters) runtimeDelta {
	return runtimeDelta{
		gcCPU: c.gcCPU - b.gcCPU, totalCPU: c.totalCPU - b.totalCPU,
		allocBytes: c.allocBytes - b.allocBytes, cycles: c.cycles - b.cycles,
	}
}

func (d runtimeDelta) plus(o runtimeDelta) runtimeDelta {
	return runtimeDelta{
		gcCPU: d.gcCPU + o.gcCPU, totalCPU: d.totalCPU + o.totalCPU,
		allocBytes: d.allocBytes + o.allocBytes, cycles: d.cycles + o.cycles,
	}
}

// layers reports allocation and GC cycles over d (one pass) and the GC
// share of CPU over whole, a longer region: the runtime's CPU classes are
// updated only at GC boundaries.
func (d runtimeDelta) layers(whole runtimeDelta) []named {
	frac := 0.0
	if whole.totalCPU > 0 {
		frac = whole.gcCPU / whole.totalCPU
	}
	return []named{
		{"runtime.gc_cpu_frac", frac, "ratio"},
		{"runtime.alloc_mb", mb(int64(d.allocBytes)), "MB"},
		{"runtime.gc_cycles", float64(d.cycles), "count"},
	}
}

// replayKernels times three bootstrap and aggregate kernels from outside
// the engine, at the workload's B and over the counts its run produced:
// weight derivation for every streamed row, one summary per uncertain
// cell, and one SUM fold per folded tuple.
func replayKernels(seed uint64, streamedRows, cells, folded int) []named {
	src := bootstrap.NewPoissonSource(seed, trials)
	w := make([]float64, trials)
	t := clock()
	for i := 0; i < streamedRows; i++ {
		src.WeightsInto(uint64(i), w)
	}
	weightsNs := perItem(clock()-t, streamedRows)

	rng := rand.New(rand.NewSource(int64(seed)))
	reps := make([]float64, trials)
	for i := range reps {
		reps[i] = 100 + rng.NormFloat64()
	}
	var scratch []float64
	t = clock()
	for i := 0; i < cells; i++ {
		_, scratch = bootstrap.SummarizeInto(100, reps, scratch)
	}
	summarizeNs := perItem(clock()-t, cells)

	const tile = 512
	slab := make([]float64, tile*trials)
	for r := 0; r < tile; r++ {
		src.WeightsInto(uint64(r), slab[r*trials:(r+1)*trials])
	}
	vals := make([]float64, tile)
	mults := make([]float64, tile)
	rows := make([]int32, tile)
	for i := range vals {
		vals[i] = rng.Float64() * 1000
		mults[i] = 1
		rows[i] = int32(i)
	}
	sum, _ := agg.NewRegistry().Lookup("SUM")
	v := agg.NewVector(sum, trials)
	t = clock()
	for done := 0; done < folded; done += tile {
		n := min(tile, folded-done)
		v.AddBatch(vals[:n], mults[:n], slab, rows[:n])
	}
	foldNs := perItem(clock()-t, folded)

	return []named{
		{"bootstrap.weights_ns_per_row", weightsNs, "ns"},
		{"bootstrap.summarize_ns_per_cell", summarizeNs, "ns"},
		{"agg.fold_ns_per_tuple", foldNs, "ns"},
	}
}

func perItem(d time.Duration, n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(d.Nanoseconds()) / float64(n)
}
