package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
)

// TestSmoke runs every workload of BENCHMARK.json at a tiny scale, untraced
// and traced, and checks that the correctness gate passes and that the
// result line carries exactly the metrics BENCHMARK.json names, with their
// units. A renamed metric or a wrong answer fails here.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		benchmarkJSON
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		for _, trace := range []bool{false, true} {
			w, trace := w, trace
			t.Run(fmt.Sprintf("%s/trace=%v", w.Name, trace), func(t *testing.T) {
				var out bytes.Buffer
				err := bench(config{workload: w.Name, seed: 3, seconds: 0.2, trace: trace,
					traceDir: t.TempDir(), spec: "../BENCHMARK.json", scale: 0.02}, &out)
				if err != nil {
					t.Fatal(err)
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res resultJSON
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v\n%s", err, out.String())
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correctness gate: correct=%v attempted=%d failed=%d\n%s",
						res.Correct, res.Attempted, res.Failed, out.String())
				}
				want := spec.EndToEnd
				if trace {
					want = spec.PerLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics printed, BENCHMARK.json names %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("metric %s not printed", m.Name)
					case got.Unit != m.Unit:
						t.Errorf("metric %s: unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
					case !trace && !(got.Value > 0):
						t.Errorf("end-to-end metric %s = %v, must be positive", m.Name, got.Value)
					}
				}
			})
		}
	}
}

func TestUnknownWorkloadFails(t *testing.T) {
	var out bytes.Buffer
	if err := bench(config{workload: "nope", spec: "../BENCHMARK.json"}, &out); err == nil {
		t.Fatal("unknown workload accepted")
	}
	if out.Len() != 0 {
		t.Fatalf("printed output for a failed run: %s", out.String())
	}
}

// TestSelfTime checks that a span's self time excludes the union of its
// children's intervals, overlapping children counted once.
func TestSelfTime(t *testing.T) {
	tr := &tracer{spans: []span{
		{Name: "bench.query", Start: 0, End: 100, Parent: -1},
		{Name: "core.step", Start: 10, End: 50, Parent: 0},
		{Name: "core.step", Start: 40, End: 60, Parent: 0},
		{Name: "exec.baseline", Start: 90, End: 120, Parent: 0},
	}}
	got := tr.selfTimes()
	if got["bench"] != 100-50-10 || got["core"] != 40+20 || got["exec"] != 30 {
		t.Fatalf("self times %v", got)
	}
}
