package main

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	"iolap/internal/exec"
	"iolap/internal/rel"
	"iolap/internal/serve"
	"iolap/internal/workload"
)

// serveSpec is a closed loop of clients opening serve sessions over a
// query pool and reading each to its exact answer.
type serveSpec struct {
	rows    int
	pool    []string
	cohort  int // sessions per pass; 2*cohort clients
	batches int
}

// sessionWorkers is each session's partition parallelism: a serving engine
// gives each of its many sessions one worker.
const sessionWorkers = 1

// heapWindow is the serve workload's heap-peak window; the engine
// workloads use one window per pass.
const heapWindow = 2 * time.Second

// serveSlack is every session's variation-range slack ε, the paper's
// recommended setting.
const serveSlack = 2.0

// baselineReps is how many times each pool query's baseline runs on each
// data set; its time is the median.
const baselineReps = 4

type sessionRec struct {
	query            string
	data             int
	answer           *rel.Relation
	wait, ttfe, wall float64 // ms
	gaps             []float64
	firstRSD         float64
	cells            int
}

// baseKey names a pool query on one data set.
type baseKey struct {
	query string
	data  int
}

// servePhase is one timed stretch of the serve workload.
type servePhase struct {
	data []dataset
	pool []workload.Query
	// baseTimes holds each pool query's baseline times on each data set,
	// baseMs their median and want the exact answer.
	baseTimes map[baseKey][]float64
	baseMs    map[baseKey]float64
	want      map[baseKey]*rel.Relation
	heap      *heapSampler
	stats     serve.Stats // summed over the data sets' engines
	shareMB   float64
	elapsed   time.Duration
	runtime   runtimeDelta
	mu        sync.Mutex
	sessions  []sessionRec
	attempt   int
	failures  []string
}

func (p *servePhase) fail(format string, args ...interface{}) {
	p.mu.Lock()
	p.failures = append(p.failures, fmt.Sprintf(format, args...))
	p.mu.Unlock()
}

// runServe runs the baselines, then a closed loop of 2*spec.cohort clients
// against one serving engine per data set, an equal share of budget each.
func runServe(spec serveSpec, data []dataset, budget time.Duration, tr *tracer) (*servePhase, error) {
	pool, err := pick(data[0].w, spec.pool)
	if err != nil {
		return nil, err
	}
	p := &servePhase{data: data, pool: pool, heap: &heapSampler{window: heapWindow},
		baseTimes: make(map[baseKey][]float64), baseMs: make(map[baseKey]float64), want: make(map[baseKey]*rel.Relation)}
	if err := p.baselines(tr); err != nil {
		return nil, err
	}
	for d := range data {
		if err := p.loop(spec, d, budget/time.Duration(len(data)), tr); err != nil {
			return nil, err
		}
	}
	p.check()
	return p, nil
}

// loop drives 2*spec.cohort closed-loop clients against a serving engine
// over data set d until budget has passed; sessions in flight then finish.
func (p *servePhase) loop(spec serveSpec, d int, budget time.Duration, tr *tracer) error {
	ds := p.data[d]
	eng := serve.NewEngine(ds.db, nil, ds.w.Funcs, ds.w.Aggs, serve.Config{Batches: spec.batches})
	before := readRuntime()
	wallStart, start := time.Now(), clock()
	var (
		wg   sync.WaitGroup
		last time.Duration
		next int  // sessions opened on this engine
		stop bool // the budget has passed at the end of a round
	)
	// The clients form two groups of spec.cohort and run a relay: a group
	// opens its next sessions once every session of the other group has
	// delivered its first estimate. So a group's sessions arrive together
	// while the other group's pass runs, wait for that pass to end, and
	// run the next pass as one cohort: every pass steps spec.cohort
	// sessions in parallel through the engine's fan-out. With free-running
	// clients, sessions lock into long stretches of shared or alternating
	// passes, and which one a run landed in moved every serve metric by
	// 20-40% from run to run.
	clients := 2 * spec.cohort
	batons := make([]chan struct{}, clients)
	for c := range batons {
		batons[c] = make(chan struct{}, 1)
	}
	var arrived [2]int
	for c := 0; c < spec.cohort; c++ {
		batons[c] <- struct{}{}
	}
	wg.Add(clients)
	for c := 0; c < clients; c++ {
		group := c / spec.cohort
		pass := func() {
			p.mu.Lock()
			arrived[group]++
			all := arrived[group] == spec.cohort
			if all {
				arrived[group] = 0
			}
			p.mu.Unlock()
			if all {
				other := 1 - group
				for o := other * spec.cohort; o < (other+1)*spec.cohort; o++ {
					batons[o] <- struct{}{}
				}
			}
		}
		go func() {
			defer wg.Done()
			for range batons[c] {
				// Sessions take the pool in cyclic order, and the loop
				// ends with a round, so every query runs equally often:
				// the queries' costs differ by up to 1.7x, and a partial
				// last round moved sessions per second with its mix. The
				// sessions of one round share a bootstrap seed, so the
				// sessions of a cohort can share state; the seed changes
				// per round, so a rare recovery at one seed does not
				// decide a whole run.
				p.mu.Lock()
				if stop || time.Since(wallStart) >= budget && next%len(p.pool) == 0 {
					stop = true
					p.mu.Unlock()
					pass()
					return
				}
				k := next
				next++
				p.attempt++
				req := p.attempt
				p.mu.Unlock()
				q := p.pool[k%len(p.pool)]
				sessionSeed := uint64(ds.seed)<<20 + uint64(k/len(p.pool))
				end := p.session(eng, q, d, sessionSeed, tr, req, pass)
				p.mu.Lock()
				last = max(last, end)
				p.mu.Unlock()
			}
		}()
	}
	wg.Wait()
	p.elapsed += last - start
	p.runtime = p.runtime.plus(readRuntime().since(before))
	st := eng.Snapshot()
	p.stats.Completed += st.Completed
	p.stats.Queued += st.Queued
	p.stats.Rejected += st.Rejected
	p.stats.SharedStateHits += st.SharedStateHits
	p.stats.SharedStateBytesSaved += st.SharedStateBytesSaved
	p.shareMB = max(p.shareMB, mb(eng.SharedPeakBytes()))
	if err := eng.Close(); err != nil {
		return fmt.Errorf("serve engine close: %w", err)
	}
	return nil
}

// baselines runs each pool query's exec baseline baselineReps times on
// every data set, keeping the times in baseTimes and the answer in want.
// Each run starts from a collected heap, as every engine query does.
func (p *servePhase) baselines(tr *tracer) error {
	for d, ds := range p.data {
		for _, q := range p.pool {
			key := baseKey{q.Name, d}
			for r := 0; r < baselineReps; r++ {
				node, pp, err := ds.w.Plan(q)
				if err != nil {
					return err
				}
				runtime.GC()
				t := clock()
				sp := tr.begin("exec.baseline", -1, 0)
				out, err := exec.RunWorkers(node, ds.db, sessionWorkers)
				tr.end(sp)
				p.baseTimes[key] = append(p.baseTimes[key], since(t))
				if err != nil {
					return fmt.Errorf("%s: baseline: %w", q.Name, err)
				}
				p.want[key] = pp.Apply(out)
			}
		}
	}
	return nil
}

// check takes each pool query's median baseline time and compares every
// session's final answer with the baseline's.
func (p *servePhase) check() {
	for key, times := range p.baseTimes {
		p.baseMs[key] = median(times)
	}
	kept := p.sessions[:0]
	for _, r := range p.sessions {
		if !rel.EqualBag(r.answer, p.want[baseKey{r.query, r.data}], equalEps) {
			p.fail("%s: session answer differs from the exec baseline", r.query)
			continue
		}
		r.answer = nil
		kept = append(kept, r)
	}
	p.sessions = kept
}

// session opens q on data set d's engine and reads it to the exact answer,
// calling handoff once: at the first estimate, or when the session ends
// without one. It returns the clock() reading when the session ended.
func (p *servePhase) session(eng *serve.Engine, q workload.Query, d int, seed uint64, tr *tracer, req int, handoff func()) time.Duration {
	root := tr.begin("bench.session", -1, req)
	defer tr.end(root)
	handed := false
	defer func() {
		if !handed {
			handoff()
		}
	}()
	t0 := clock()
	sp := tr.begin("serve.open", root, req)
	s, err := eng.Open(q.SQL, serve.SessionOptions{
		Stream: q.Stream, Trials: trials, Slack: serveSlack, Seed: seed, Workers: sessionWorkers,
	})
	tr.end(sp)
	t1 := clock()
	if err != nil {
		p.fail("%s: open: %v", q.Name, err)
		return t1
	}
	rec := sessionRec{query: q.Name, data: d}
	var (
		final *serve.Update
		prev  time.Duration
	)
	for s.Next() {
		now := clock()
		p.heap.sample()
		u := s.Update()
		if final == nil {
			tr.record("serve.first_update_wait", t1, now, root, req)
			rec.wait = ms(now - t1)
			rec.ttfe = ms(now - t0)
			rec.firstRSD = u.MaxRelStdev()
			handoff()
			handed = true
		} else {
			tr.record("serve.next", prev, now, root, req)
			rec.gaps = append(rec.gaps, ms(now-prev))
		}
		for _, row := range u.Estimates {
			for _, e := range row {
				if e.Stdev > 0 {
					rec.cells++
				}
			}
		}
		prev, final = now, u
	}
	if err := s.Err(); err != nil {
		p.fail("%s: session: %v", q.Name, err)
		return prev
	}
	if final == nil || final.Batch != final.Batches {
		p.fail("%s: session ended before its last batch", q.Name)
		return prev
	}
	rec.wall = ms(prev - t0)
	rec.answer = final.Result
	p.mu.Lock()
	p.sessions = append(p.sessions, rec)
	p.mu.Unlock()
	return prev
}

func (p *servePhase) outcome() (string, int, []string) {
	return fmt.Sprintf("sessions=%d", len(p.sessions)), p.attempt, p.failures
}

// endToEnd derives the end-to-end metrics (setup_s aside). The TTFE and
// step-latency quantiles are taken per query and combined by geomean, as
// on the engine workloads: a session's wait is the other cohort's
// remaining pass, so it is multimodal by query when pooled. The batch
// figures are the refresh gaps between Nexts in CPU time: the cohort's
// batch for both its sessions. In wall time the gap's tail also held the
// reading client's scheduling delay, and moved 30% from run to run.
func (p *servePhase) endToEnd() []named {
	var overhead, ttfe, batch, batch95, rsd, ttfe50, ttfe90 []float64
	byQuery := make(map[string][]float64)
	gaps := make(map[string][]float64)
	for _, r := range p.sessions {
		overhead = append(overhead, r.wall/p.baseMs[baseKey{r.query, r.data}])
		ttfe = append(ttfe, r.ttfe)
		byQuery[r.query] = append(byQuery[r.query], r.ttfe)
		batch = append(batch, median(r.gaps))
		gaps[r.query] = append(gaps[r.query], r.gaps...)
		rsd = append(rsd, 100*r.firstRSD)
	}
	for _, q := range p.pool {
		if xs := byQuery[q.Name]; len(xs) > 0 {
			ttfe50 = append(ttfe50, median(xs))
			ttfe90 = append(ttfe90, quantile(xs, 0.9))
			batch95 = append(batch95, quantile(gaps[q.Name], 0.95))
		}
	}
	qps := 0.0
	if p.elapsed > 0 {
		qps = float64(len(p.sessions)) / p.elapsed.Seconds()
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

// baseMedian is the median of query's baseline times over every data set.
func (p *servePhase) baseMedian(query string) float64 {
	var all []float64
	for d := range p.data {
		all = append(all, p.baseTimes[baseKey{query, d}]...)
	}
	return median(all)
}

// detail renders per-query session medians.
func (p *servePhase) detail() string {
	byQuery := make(map[string][]sessionRec)
	for _, r := range p.sessions {
		byQuery[r.query] = append(byQuery[r.query], r)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-6s %8s %9s %9s %9s %9s %9s\n", "query", "sessions", "ttfe_ms", "wait_ms", "wall_ms", "base_ms", "rsd_pct")
	for _, q := range p.pool {
		rs := byQuery[q.Name]
		var ttfe, wait, wall, rsd []float64
		for _, r := range rs {
			ttfe = append(ttfe, r.ttfe)
			wait = append(wait, r.wait)
			wall = append(wall, r.wall)
			rsd = append(rsd, 100*r.firstRSD)
		}
		fmt.Fprintf(&b, "%-6s %8d %9.2f %9.2f %9.2f %9.2f %9.2f\n", q.Name, len(rs),
			median(ttfe), median(wait), median(wall), p.baseMedian(q.Name), median(rsd))
	}
	return b.String()
}

// layers derives the serve and share metrics of a traced phase, and the
// kernel replays over one session of each pool query on each data set.
func (p *servePhase) layers(tr *tracer) []named {
	cells := make(map[baseKey]int)
	for _, r := range p.sessions {
		if _, ok := cells[baseKey{r.query, r.data}]; !ok {
			cells[baseKey{r.query, r.data}] = r.cells
		}
	}
	total := 0
	for _, c := range cells {
		total += c
	}
	streamed := p.data[0].w.Tables[p.pool[0].Stream].Len()
	out := []named{
		{"serve.open_ms_p50", median(tr.durations("serve.open")), "ms"},
		{"serve.first_update_wait_ms_p50", median(tr.durations("serve.first_update_wait")), "ms"},
		{"serve.completed", float64(p.stats.Completed), "count"},
		{"serve.queued", float64(p.stats.Queued), "count"},
		{"serve.rejected", float64(p.stats.Rejected), "count"},
		{"share.hits", float64(p.stats.SharedStateHits), "count"},
		{"share.bytes_saved", float64(p.stats.SharedStateBytesSaved), "bytes"},
		{"share.peak_mb", p.shareMB, "MB"},
	}
	for _, q := range p.pool {
		out = append(out, named{"exec.baseline_ms." + q.Name, p.baseMedian(q.Name), "ms"})
	}
	out = append(out, replayKernels(uint64(p.data[0].seed), streamed, total, len(cells)*streamed)...)
	return append(out, p.runtime.layers(p.runtime)...)
}
