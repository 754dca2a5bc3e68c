package main

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"iolap/internal/core"
	"iolap/internal/exec"
	"iolap/internal/rel"
	"iolap/internal/workload"
)

// engineSpec is one workload that runs its queries one at a time through
// core.Engine, each checked against the exact exec baseline.
type engineSpec struct {
	conviva bool
	rows    int
	queries []string // nil: every query of the workload
	batches int
	slack   float64
}

const (
	trials = 100 // bootstrap replicates B, the paper's setting
	// engineWorkers is the partition parallelism of each engine query and
	// of its baseline: the host has 2 cores and queries run one at a time.
	engineWorkers = 2
	// ttfeReps extra opens per query, data set and pass sample time to
	// first estimate (plan, compile, first Step, Close): one sample per
	// query and pass spread ±17%, and first estimates are cheap.
	ttfeReps = 8
	// equalEps is the relative tolerance of the final-answer check; the
	// engine and the baseline sum in different orders.
	equalEps = 1e-9
)

// dataset is one generated copy of the workload's tables and the seed that
// generated it, which its engines and sessions also take.
type dataset struct {
	w    *workload.Workload
	db   *exec.DB
	seed int64
}

func generate(conviva bool, rows int, seed int64) *workload.Workload {
	if conviva {
		return workload.Conviva(workload.ConvivaScale{Sessions: rows, Seed: seed})
	}
	return workload.TPCH(workload.TPCHScale{Fact: rows, Seed: seed})
}

// pick returns the named queries of w in the given order (all when names
// is nil).
func pick(w *workload.Workload, names []string) ([]workload.Query, error) {
	if names == nil {
		return w.Queries, nil
	}
	out := make([]workload.Query, 0, len(names))
	for _, n := range names {
		q, ok := w.Query(n)
		if !ok {
			return nil, fmt.Errorf("workload %s has no query %s", w.Name, n)
		}
		out = append(out, q)
	}
	return out, nil
}

// exactCounts are the engine counters that repeat exactly at a given seed:
// every run of a query must reproduce them, traced or not.
type exactCounts struct {
	recoveries, recomputed, ndsetPeak, joinPeak, otherPeak int
	shuffle, broadcast                                     int64
}

// queryStats accumulates one query's samples over a phase. Times in ms.
type queryStats struct {
	name      string
	runs      int         // complete runs, on every data set
	full      [][]float64 // NewEngine + every Step, per data set
	stepSum   [][]float64 // every Step, per data set
	ttfe      []float64   // Plan → NewEngine → first Step
	firstStep []float64
	base      [][]float64 // exec.RunWorkers, per data set
	steps     []float64   // each Step after the first, which ttfe holds
	runP95    []float64   // per run, the 95th percentile of those Steps
	clean     []float64   // Steps with Recoveries == 0
	recov     []float64   // Steps with Recoveries > 0
	firstRSD  []float64   // MaxRelStdev of the first estimate, per data set
	// counts and cells (uncertain cells summarised over one run) are per
	// data set; counts is nil until the query's first run on it.
	counts []*exactCounts
	cells  []int
}

// enginePhase is one timed stretch of an engine workload.
type enginePhase struct {
	spec      engineSpec
	data      []dataset
	queries   []workload.Query
	stats     []*queryStats
	heap      *heapSampler
	passes    int
	pass0     runtimeDelta // runtime counters over the first pass
	phase     runtimeDelta // runtime counters over the whole phase
	attempted int
	failures  []string
}

func (p *enginePhase) fail(format string, args ...interface{}) {
	p.failures = append(p.failures, fmt.Sprintf(format, args...))
}

func (p *enginePhase) options(d int) core.Options {
	return core.Options{
		Batches: p.spec.batches, Trials: trials, Slack: p.spec.slack,
		Seed: uint64(p.data[d].seed), Workers: engineWorkers,
	}
}

// runEngine measures the engine workload for budget (at least one whole
// pass over its queries), recording spans when tr is non-nil. A pass runs
// each query on every data set in turn, so every query sees each data set
// equally often.
func runEngine(spec engineSpec, data []dataset, budget time.Duration, tr *tracer) (*enginePhase, error) {
	qs, err := pick(data[0].w, spec.queries)
	if err != nil {
		return nil, err
	}
	p := &enginePhase{spec: spec, data: data, queries: qs, heap: new(heapSampler)}
	for _, q := range qs {
		p.stats = append(p.stats, &queryStats{name: q.Name,
			full: make([][]float64, len(data)), stepSum: make([][]float64, len(data)), base: make([][]float64, len(data)),
			firstRSD: make([]float64, len(data)), counts: make([]*exactCounts, len(data)), cells: make([]int, len(data))})
	}
	start := time.Now()
	all := readRuntime()
	req := 0
	for p.passes = 0; p.passes == 0 || time.Since(start) < budget; p.passes++ {
		before := readRuntime()
		for i, q := range qs {
			if p.passes > 0 && time.Since(start) >= budget {
				break
			}
			for d := range p.data {
				// Collect the previous run's garbage untimed, so that every
				// run of a query starts from the same heap and its GC
				// cycles fall at the same points: process CPU time also
				// counts the GC's mark workers, and a cycle left over from
				// the previous query landed in whichever Step was running.
				runtime.GC()
				req++
				p.runQuery(q, d, p.stats[i], tr, req)
				for r := 0; r < ttfeReps; r++ {
					req++
					p.sampleTTFE(q, d, p.stats[i], tr, req)
				}
			}
		}
		if p.passes == 0 {
			p.pass0 = readRuntime().since(before)
		}
		if time.Since(start) < budget {
			p.heap.closeWindow()
		}
	}
	p.phase = readRuntime().since(all)
	return p, nil
}

// runQuery runs q on data set d to its exact answer, then the baseline,
// and checks them.
func (p *enginePhase) runQuery(q workload.Query, d int, st *queryStats, tr *tracer, req int) {
	ds := p.data[d]
	p.attempted++
	root := tr.begin("bench.query", -1, req)
	defer tr.end(root)
	t0 := clock()
	sp := tr.begin("sql.plan", root, req)
	node, _, err := ds.w.Plan(q)
	tr.end(sp)
	if err != nil {
		p.fail("%s: plan: %v", q.Name, err)
		return
	}
	tc := clock()
	sp = tr.begin("core.compile", root, req)
	eng, err := core.NewEngine(node, ds.db, p.options(d))
	tr.end(sp)
	if err != nil {
		p.fail("%s: compile: %v", q.Name, err)
		return
	}
	var (
		last   *core.Update
		c      exactCounts
		cells  int
		stepMs float64
		steps  []float64 // after the first
	)
	for i := 0; !eng.Done(); i++ {
		ts := clock()
		sp = tr.begin("core.step", root, req)
		u, err := eng.Step()
		tr.end(sp)
		dt := since(ts)
		if err != nil {
			eng.Close()
			p.fail("%s: batch %d: %v", q.Name, i+1, err)
			return
		}
		p.heap.sample()
		if i == 0 {
			st.ttfe = append(st.ttfe, since(t0))
			st.firstStep = append(st.firstStep, dt)
			st.firstRSD[d] = u.MaxRelStdev()
		} else {
			steps = append(steps, dt)
		}
		stepMs += dt
		if u.Recoveries > 0 {
			st.recov = append(st.recov, dt)
		} else {
			st.clean = append(st.clean, dt)
		}
		c.recoveries += u.Recoveries
		c.recomputed += u.Recomputed
		c.ndsetPeak = max(c.ndsetPeak, u.NDSetRows)
		c.joinPeak = max(c.joinPeak, u.JoinStateBytes)
		c.otherPeak = max(c.otherPeak, u.OtherStateBytes)
		c.shuffle += u.ShuffleBytes
		c.broadcast += u.BroadcastBytes
		cells += uncertainCells(u)
		last = u
	}
	full := since(tc)
	// Closed here, not deferred, so that the engine is unreachable and the
	// collection below frees its state: the baseline starts from the heap
	// every query starts from.
	eng.Close()

	sp = tr.begin("sql.plan", root, req)
	bnode, _, err := ds.w.Plan(q)
	tr.end(sp)
	if err != nil {
		p.fail("%s: baseline plan: %v", q.Name, err)
		return
	}
	runtime.GC()
	tb := clock()
	sp = tr.begin("exec.baseline", root, req)
	want, err := exec.RunWorkers(bnode, ds.db, engineWorkers)
	tr.end(sp)
	base := since(tb)
	if err != nil {
		p.fail("%s: baseline: %v", q.Name, err)
		return
	}
	if last == nil || !rel.EqualBag(last.Result, want, equalEps) {
		p.fail("%s: final answer differs from the exec baseline", q.Name)
		return
	}
	if st.counts[d] == nil {
		st.counts[d] = &c
		st.cells[d] = cells
	} else if *st.counts[d] != c {
		p.fail("%s: exact counts %+v differ from the first run's %+v", q.Name, c, *st.counts[d])
		return
	}
	st.runs++
	st.full[d] = append(st.full[d], full)
	st.stepSum[d] = append(st.stepSum[d], stepMs)
	st.base[d] = append(st.base[d], base)
	st.steps = append(st.steps, steps...)
	st.runP95 = append(st.runP95, quantile(steps, 0.95))
}

// sampleTTFE opens q on data set d, takes its first estimate and abandons
// it.
func (p *enginePhase) sampleTTFE(q workload.Query, d int, st *queryStats, tr *tracer, req int) {
	p.attempted++
	root := tr.begin("bench.ttfe", -1, req)
	defer tr.end(root)
	t0 := clock()
	sp := tr.begin("sql.plan", root, req)
	node, _, err := p.data[d].w.Plan(q)
	tr.end(sp)
	if err != nil {
		p.fail("%s: plan: %v", q.Name, err)
		return
	}
	sp = tr.begin("core.compile", root, req)
	eng, err := core.NewEngine(node, p.data[d].db, p.options(d))
	tr.end(sp)
	if err != nil {
		p.fail("%s: compile: %v", q.Name, err)
		return
	}
	defer eng.Close()
	sp = tr.begin("core.step", root, req)
	_, err = eng.Step()
	tr.end(sp)
	if err != nil {
		p.fail("%s: first batch: %v", q.Name, err)
		return
	}
	st.ttfe = append(st.ttfe, since(t0))
}

func uncertainCells(u *core.Update) int {
	n := 0
	for _, row := range u.Estimates {
		for _, e := range row {
			if e.Stdev > 0 {
				n++
			}
		}
	}
	return n
}

// perData is the geomean over the data sets of each one's median: a run
// that stops inside a pass has run some queries once more on some data
// sets than on others, and a median over the pooled runs would lean to
// those.
func perData(xs [][]float64) float64 {
	var meds []float64
	for _, x := range xs {
		if len(x) > 0 {
			meds = append(meds, median(x))
		}
	}
	return geomean(meds)
}

// endToEnd derives the end-to-end metrics (setup_s aside). Per-query
// figures are combined by geomean: a quantile of samples pooled across
// queries jumps between the queries' modes from run to run. A query's
// batch_ms_p95 is the median over its runs of each run's 95th percentile:
// a query has a fixed number of slow Steps per run (recoveries, for one),
// so the 95th percentile of its pooled Steps fell inside or outside them
// with the number of runs that fit in --seconds.
func (p *enginePhase) endToEnd() []named {
	var full, overhead, ttfe, ttfe50, ttfe90, batch, batch95, rsd []float64
	sumFull := 0.0
	for _, st := range p.stats {
		if st.runs == 0 {
			continue
		}
		f := perData(st.full)
		sumFull += f
		full = append(full, f)
		overhead = append(overhead, f/perData(st.base))
		ttfe = append(ttfe, geomean(st.ttfe))
		ttfe50 = append(ttfe50, median(st.ttfe))
		ttfe90 = append(ttfe90, quantile(st.ttfe, 0.9))
		batch = append(batch, median(st.steps))
		batch95 = append(batch95, median(st.runP95))
		for _, r := range st.firstRSD {
			rsd = append(rsd, 100*r)
		}
	}
	qps := 0.0
	if sumFull > 0 {
		qps = float64(len(full)) / (sumFull / 1000)
	}
	return []named{
		{"queries_per_s", qps, "1/s"},
		{"overhead_x", geomean(overhead), "ratio"},
		{"ttfe_ms_geo", geomean(ttfe), "ms"},
		{"ttfe_ms_p50", geomean(ttfe50), "ms"},
		{"ttfe_ms_p90", geomean(ttfe90), "ms"},
		{"batch_ms_geo", geomean(batch), "ms"},
		{"batch_ms_p95", geomean(batch95), "ms"},
		{"first_rsd_pct", geomean(rsd), "%"},
		{"peak_heap_mb", p.heap.peakMB(), "MB"},
	}
}

// detail renders the per-query medians behind the end-to-end metrics.
func (p *enginePhase) detail() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-6s %5s %10s %10s %9s %9s %9s %9s %6s\n",
		"query", "runs", "full_ms", "base_ms", "overhead", "ttfe_ms", "batch_ms", "rsd_pct", "recov")
	for _, st := range p.stats {
		if st.runs == 0 {
			fmt.Fprintf(&b, "%-6s %5d  (no complete run)\n", st.name, 0)
			continue
		}
		recov := 0
		for _, c := range st.counts {
			if c != nil {
				recov += c.recoveries
			}
		}
		fmt.Fprintf(&b, "%-6s %5d %10.2f %10.2f %9.2f %9.2f %9.2f %9.2f %6d\n",
			st.name, st.runs, perData(st.full), perData(st.base), perData(st.full)/perData(st.base),
			median(st.ttfe), median(st.steps), 100*geomean(st.firstRSD), recov)
	}
	return b.String()
}

func (p *enginePhase) outcome() (string, int, []string) {
	return fmt.Sprintf("passes=%d", p.passes), p.attempted, p.failures
}

// countMismatches lists the queries whose exact counts differ between p and
// o, two phases at the same seed.
func (p *enginePhase) countMismatches(o *enginePhase) []string {
	var out []string
	for i, st := range p.stats {
		for d, a := range st.counts {
			if b := o.stats[i].counts[d]; a != nil && b != nil && *a != *b {
				out = append(out, fmt.Sprintf("%s: exact counts differ between phases (%+v, %+v)", st.name, *a, *b))
			}
		}
	}
	return out
}

// totals sums the exact counts over one run of every query on every data
// set.
func (p *enginePhase) totals() (c exactCounts, cells int) {
	for _, st := range p.stats {
		for d, q := range st.counts {
			if q == nil {
				continue
			}
			c.recoveries += q.recoveries
			c.recomputed += q.recomputed
			c.ndsetPeak = max(c.ndsetPeak, q.ndsetPeak)
			c.joinPeak = max(c.joinPeak, q.joinPeak)
			c.otherPeak = max(c.otherPeak, q.otherPeak)
			c.shuffle += q.shuffle
			c.broadcast += q.broadcast
			cells += st.cells[d]
		}
	}
	return c, cells
}

// layers derives the per-layer metrics of a traced phase.
func (p *enginePhase) layers(tr *tracer) []named {
	var firstStep, clean, recov []float64
	fullMs := make(map[string]float64)
	baseMs := make(map[string]float64)
	for _, st := range p.stats {
		if st.runs == 0 {
			continue
		}
		firstStep = append(firstStep, median(st.firstStep))
		clean = append(clean, st.clean...)
		recov = append(recov, st.recov...)
		fullMs[st.name] = perData(st.stepSum)
		baseMs[st.name] = perData(st.base)
	}
	c, cells := p.totals()
	streamed := p.data[0].w.Tables[p.queries[0].Stream].Len()
	out := []named{
		{"sql.plan_ms_p50", median(tr.durations("sql.plan")), "ms"},
		{"core.compile_ms_p50", median(tr.durations("core.compile")), "ms"},
		{"core.first_step_ms_geo", geomean(firstStep), "ms"},
	}
	for _, q := range p.queries {
		out = append(out, named{"core.full_ms." + q.Name, fullMs[q.Name], "ms"})
	}
	out = append(out,
		named{"core.step_ms_clean_p50", median(clean), "ms"},
		named{"core.step_ms_recovering_p50", median(recov), "ms"},
		named{"core.recoveries", float64(c.recoveries), "count"},
		named{"delta.recomputed_rows", float64(c.recomputed), "count"},
		named{"delta.ndset_rows_peak", float64(c.ndsetPeak), "count"},
		named{"delta.join_state_mb_peak", mb(int64(c.joinPeak)), "MB"},
		named{"delta.other_state_mb_peak", mb(int64(c.otherPeak)), "MB"},
		named{"cluster.shuffle_mb", mb(c.shuffle), "MB"},
		named{"cluster.broadcast_mb", mb(c.broadcast), "MB"},
	)
	for _, q := range p.queries {
		out = append(out, named{"exec.baseline_ms." + q.Name, baseMs[q.Name], "ms"})
	}
	// Every query folds each streamed row once per data set, plus what it
	// recomputes.
	folded := len(p.queries)*len(p.data)*streamed + c.recomputed
	out = append(out, replayKernels(uint64(p.data[0].seed), streamed, cells, folded)...)
	out = append(out, p.pass0.layers(p.phase)...)
	return out
}
