// Command benchmark is the repository's end-to-end benchmark: it runs one
// named workload against the iOLAP engine for a fixed time, checks every
// answer against the exact internal/exec baseline, and prints the metrics
// named in BENCHMARK.json. With --trace 1 it instead splits the time into
// an untraced and a traced half and prints the per-layer metrics, each
// layer's self time and the tracing overhead. NOTES.md explains the
// workloads and metrics. From the repository root:
//
//	bash benchmark/run.sh --workload tpch-fig7 --seed 1 --seconds 35 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

var engineSpecs = map[string]engineSpec{
	// Fig 7(b): every TPC-H query at the paper's p=20, B=100, ε=2.
	"tpch-fig7": {rows: 20000, batches: 20, slack: 2},
	// Fig 7(c): every Conviva query, with its UDFs and UDAFs, at the same
	// settings.
	"conviva-fig7": {conviva: true, rows: 40000, batches: 20, slack: 2},
	// The nested Conviva queries at the lowest slack of the slack sweep,
	// where most batches fail the integrity check and recover.
	"conviva-recover": {conviva: true, rows: 10000, batches: 10, slack: 1e-4,
		queries: []string{"C1", "C2", "C4", "C6", "C7", "C8", "C9", "C10"}},
}

// serveSpecs: the sessions run the pool in this fixed cyclic order, two
// to a pass. C1, C4, C7 and C8 share the inner AVG(buffer_time)
// aggregate, so the cohorts {C1, C4} and {C7, C8} hit the share cache;
// the other cohorts share nothing.
var serveSpecs = map[string]serveSpec{
	"serve-closed": {rows: 20000, cohort: 2, batches: 10,
		pool: []string{"C1", "C4", "C7", "C8", "C2", "C3", "C5", "C6", "C9", "C10", "C11", "C12"}},
}

// dataSets is how many data sets a run generates and measures, the i-th
// (from 0) at seed --seed*dataSets+i. Query costs differ from one data set
// to the next, by up to 15% on the serve workload between two seeds, and
// the check compares runs at different seeds: each run averages over
// several.
const dataSets = 3

// setupReps is how many times set-up runs; setup_s is the median.
const setupReps = 20

// warmUp is how long every core spins before set-up. On the reference
// host a process that starts after an idle spell runs up to 1.7x slower
// for its first second; without the spin that slow start lands in setup_s
// and in the first queries.
const warmUp = 1500 * time.Millisecond

func main() {
	cfg, err := parseArgs(os.Args[1:])
	if err == nil {
		err = bench(cfg, os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	traceDir string
	// spec is BENCHMARK.json: the metrics it lists, with their units and
	// in its order, are the ones printed.
	spec string
	// scale multiplies every row count, and warmUp is the spin before
	// set-up; the smoke test shrinks both.
	scale  float64
	warmUp time.Duration
}

// phase is one timed stretch of a workload.
type phase interface {
	endToEnd() []named
	layers(tr *tracer) []named
	// detail renders the per-query figures behind the metrics.
	detail() string
	// outcome summarises how much ran, and what failed, against attempted.
	outcome() (summary string, attempted int, failures []string)
}

func parseArgs(args []string) (config, error) {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	cfg := config{spec: "BENCHMARK.json", scale: 1, warmUp: warmUp}
	traceFlag := 0
	fs.StringVar(&cfg.workload, "workload", "", "workload name (see BENCHMARK.json)")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed of the generated tables and of every engine")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "measured time")
	fs.IntVar(&traceFlag, "trace", 0, "1: untraced and traced halves, per-layer metrics")
	fs.StringVar(&cfg.traceDir, "trace-dir", ".bench_build/trace", "where --trace 1 writes <workload>-<seed>.json")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	if traceFlag != 0 && traceFlag != 1 {
		return cfg, fmt.Errorf("--trace must be 0 or 1, got %d", traceFlag)
	}
	cfg.trace = traceFlag == 1
	if cfg.seconds <= 0 {
		return cfg, fmt.Errorf("--seconds must be positive")
	}
	return cfg, nil
}

func bench(cfg config, stdout io.Writer) error {
	e2eCatalog, layerCatalog, err := loadCatalog(cfg.spec)
	if err != nil {
		return err
	}
	var (
		conviva bool
		rows    int
		run     func(data []dataset, budget time.Duration, tr *tracer) (phase, error)
		params  map[string]interface{}
	)
	if spec, ok := engineSpecs[cfg.workload]; ok {
		conviva, rows = spec.conviva, spec.rows
		run = func(data []dataset, budget time.Duration, tr *tracer) (phase, error) {
			return runEngine(spec, data, budget, tr)
		}
		params = map[string]interface{}{"p": spec.batches, "slack": spec.slack, "workers": engineWorkers}
	} else if spec, ok := serveSpecs[cfg.workload]; ok {
		conviva, rows = true, spec.rows
		run = func(data []dataset, budget time.Duration, tr *tracer) (phase, error) {
			return runServe(spec, data, budget, tr)
		}
		params = map[string]interface{}{"p": spec.batches, "slack": serveSlack, "workers": sessionWorkers, "cohort": spec.cohort}
	} else {
		return fmt.Errorf("unknown workload %q", cfg.workload)
	}

	spin(cfg.warmUp)
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	data, setupS := setup(tr, conviva, max(100, int(float64(rows)*cfg.scale)), cfg.seed)
	prov := provenance(cfg, data, params)
	budget := time.Duration(cfg.seconds * float64(time.Second))
	if !cfg.trace {
		p, err := run(data, budget, nil)
		if err != nil {
			return err
		}
		summary, attempted, failures := p.outcome()
		e2e := append(p.endToEnd(), named{"setup_s", setupS, "s"})
		if e2e, err = fill(e2eCatalog, e2e); err != nil {
			return err
		}
		return report(stdout, cfg, prov, p.detail(), summary, attempted, failures, e2e, nil)
	}
	plain, err := run(data, budget/2, nil)
	if err != nil {
		return err
	}
	traced, err := run(data, budget/2, tr)
	if err != nil {
		return err
	}
	ps, pa, pf := plain.outcome()
	ts, ta, tf := traced.outcome()
	failures := append(pf, tf...)
	if pe, ok := plain.(*enginePhase); ok {
		failures = append(failures, pe.countMismatches(traced.(*enginePhase))...)
	}
	e2e := append(plain.endToEnd(), named{"setup_s", setupS, "s"})
	// Set-up is data generation only, so workload.gen_s equals setup_s.
	layers := append(traced.layers(tr), named{"workload.gen_s", setupS, "s"})
	layers = append(layers, traceLayers(tr, e2e, traced.endToEnd())...)
	if err := tr.writeChrome(filepath.Join(cfg.traceDir, fmt.Sprintf("%s-%d.json", cfg.workload, cfg.seed))); err != nil {
		return err
	}
	if e2e, err = fill(e2eCatalog, e2e); err != nil {
		return err
	}
	if layers, err = fill(layerCatalog, layers); err != nil {
		return err
	}
	return report(stdout, cfg, prov, plain.detail(), "untraced "+ps+", traced "+ts, pa+ta, failures, e2e, layers)
}

// spin keeps every core busy for d.
func spin(d time.Duration) {
	var wg sync.WaitGroup
	deadline := time.Now().Add(d)
	for i := 0; i < runtime.GOMAXPROCS(0); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			x := 1.0
			for time.Now().Before(deadline) {
				for j := 0; j < 100000; j++ {
					x = x*1.0000001 + 1e-9
				}
			}
			sink.Store(math.Float64bits(x))
		}()
	}
	wg.Wait()
}

// sink keeps the spin loop from being optimised away.
var sink atomic.Uint64

// setup generates the tables of every data set setupReps times and
// returns the last generation and the median time of one, in seconds.
func setup(tr *tracer, conviva bool, rows int, seed int64) ([]dataset, float64) {
	var (
		data  []dataset
		times []float64
	)
	for i := 0; i < setupReps; i++ {
		data = nil
		runtime.GC()
		t := clock()
		for d := 0; d < dataSets; d++ {
			s := seed*dataSets + int64(d)
			sp := tr.begin("workload.gen", -1, 0)
			w := generate(conviva, rows, s)
			data = append(data, dataset{w: w, db: w.DB(), seed: s})
			tr.end(sp)
		}
		times = append(times, (clock() - t).Seconds())
	}
	runtime.GC()
	return data, median(times)
}

// selfLayers are the layers whose self time the traced run reports:
// "bench" is the benchmark's own bookkeeping around the calls.
var selfLayers = []string{"bench", "workload", "sql", "core", "exec", "serve"}

// traceLayers reports each layer's self time, the span count, the cost of
// one span, and the tracing overhead: how much lower queries_per_s ran in
// the traced half than in the untraced half.
func traceLayers(tr *tracer, plain, traced []named) []named {
	self := tr.selfTimes()
	var out []named
	for _, l := range selfLayers {
		out = append(out, named{"self_ms." + l, ms(self[l]), "ms"})
	}
	overhead := 0.0
	if q := value(traced, "queries_per_s"); q > 0 {
		overhead = 100 * (value(plain, "queries_per_s")/q - 1)
	}
	return append(out,
		named{"trace.overhead_pct", overhead, "%"},
		named{"trace.span_ns", spanCostNs(), "ns"},
	)
}

func value(ms []named, name string) float64 {
	for _, m := range ms {
		if m.name == name {
			return m.value
		}
	}
	return 0
}

type benchmarkJSON struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

// loadCatalog reads the end-to-end and per-layer metrics of BENCHMARK.json,
// each with its unit and value 0, in print order.
func loadCatalog(path string) (e2e, layers []named, err error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	var spec benchmarkJSON
	if err := json.Unmarshal(raw, &spec); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, named{m.Name, 0, m.Unit})
	}
	for _, m := range spec.PerLayer {
		layers = append(layers, named{m.Name, 0, m.Unit})
	}
	return e2e, layers, nil
}

// fill returns catalog with the values measured in got; a metric of a
// layer the workload does not exercise stays 0. A measured metric the
// catalog lacks, or lists with another unit, is an error.
func fill(catalog, got []named) ([]named, error) {
	idx := make(map[string]int, len(catalog))
	for i, m := range catalog {
		idx[m.name] = i
	}
	for _, m := range got {
		i, ok := idx[m.name]
		if !ok {
			return nil, fmt.Errorf("metric %s is not in BENCHMARK.json", m.name)
		}
		if catalog[i].unit != m.unit {
			return nil, fmt.Errorf("metric %s: unit %s, BENCHMARK.json says %s", m.name, m.unit, catalog[i].unit)
		}
		catalog[i].value = m.value
	}
	return catalog, nil
}

func provenance(cfg config, data []dataset, params map[string]interface{}) map[string]interface{} {
	rows := make(map[string]int)
	for name, r := range data[0].w.Tables {
		rows[name] = r.Len()
	}
	var seeds []int64
	for _, d := range data {
		seeds = append(seeds, d.seed)
	}
	rev, dirty := "unknown", ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				rev = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "+dirty"
			}
		}
	}
	prov := map[string]interface{}{
		"workload": cfg.workload, "seed": cfg.seed, "seconds": cfg.seconds, "trace": cfg.trace,
		"cores": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
		"rev": rev + dirty, "rows": rows, "B": trials, "data_seeds": seeds,
	}
	for k, v := range params {
		prov[k] = v
	}
	return prov
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

// report prints the human-readable tables, the provenance record, and as
// the last line the result object: the end-to-end metrics, or with
// --trace 1 the per-layer ones. Both come filled from the catalog.
func report(out io.Writer, cfg config, prov map[string]interface{}, detail, summary string, attempted int, failures []string, e2e, layers []named) error {
	keys := make([]string, 0, len(prov))
	for k := range prov {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var pv []string
	for _, k := range keys {
		pv = append(pv, fmt.Sprintf("%s=%v", k, prov[k]))
	}
	fmt.Fprintf(out, "provenance: %s\n", strings.Join(pv, " "))
	fmt.Fprintf(out, "%s; attempted=%d failed=%d\n\n%s", summary, attempted, len(failures), detail)
	for _, f := range failures {
		fmt.Fprintln(out, "FAILED:", f)
	}
	printTable(out, "end-to-end", e2e)
	shown := e2e
	if cfg.trace {
		printTable(out, "per-layer (traced half)", layers)
		fmt.Fprintf(out, "tracing overhead: %.2f%% of queries_per_s (%.0f ns per span)\n",
			value(layers, "trace.overhead_pct"), value(layers, "trace.span_ns"))
		shown = layers
	}
	res := resultJSON{
		Correct: len(failures) == 0, Attempted: attempted, Failed: len(failures),
		Metrics: make(map[string]metricJSON, len(shown)),
	}
	for _, m := range shown {
		res.Metrics[m.name] = metricJSON{m.value, m.unit}
	}
	pj, err := json.Marshal(map[string]interface{}{"provenance": prov})
	if err != nil {
		return err
	}
	fmt.Fprintln(out, string(pj))
	rj, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(out, string(rj))
	return err
}

func printTable(out io.Writer, title string, ms []named) {
	fmt.Fprintf(out, "\n%-34s %14s  %s\n", title, "value", "unit")
	for _, m := range ms {
		fmt.Fprintf(out, "%-34s %14.4f  %s\n", m.name, m.value, m.unit)
	}
	fmt.Fprintln(out)
}
