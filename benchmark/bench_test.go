package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"testing"
	"time"
)

// manifest mirrors BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// TestManifestMatchesMetrics keeps BENCHMARK.json and the tables in
// metrics.go and workload.go in step.
func TestManifestMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("manifest lists %d workloads, the benchmark has %d", len(m.Workloads), len(workloads))
	}
	for i, w := range m.Workloads {
		if w.Name != workloads[i].name || !nameRE.MatchString(w.Name) {
			t.Errorf("workload %d: manifest %q, benchmark %q", i, w.Name, workloads[i].name)
		}
	}
	check := func(kind string, got []manifestMetric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: manifest lists %d metrics, the benchmark has %d", kind, len(got), len(want))
		}
		for i, g := range got {
			w := want[i]
			if g.Name != w.name || g.Unit != w.unit || g.Better != w.better || g.Bound != w.bound {
				t.Errorf("%s %d: manifest %+v, benchmark %+v", kind, i, g, w)
			}
			if !nameRE.MatchString(g.Name) {
				t.Errorf("%s: name %q is outside the charset", kind, g.Name)
			}
		}
	}
	check("end_to_end", m.EndToEnd, endToEnd)
	check("per_layer", m.PerLayer, perLayer)
}

// TestOpListsRepeat: an op list is a pure function of (workload, seed,
// client), and a different seed gives a different list.
func TestOpListsRepeat(t *testing.T) {
	for _, sp := range workloads {
		a := newOpGen(sp, 7, 0, 2, 0).take(500)
		b := newOpGen(sp, 7, 0, 2, 0).take(500)
		c := newOpGen(sp, 8, 0, 2, 0).take(500)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: two op lists from one seed differ", sp.name)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: op lists from two seeds are identical", sp.name)
		}
	}
}

// TestWorkloadsSmoke runs every workload end to end and traced at a
// small size, and checks what the runs must emit: every metric under its
// declared name, no failed op, spans for every rung, and rung self times
// that add up to the top rung.
func TestWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload for a second")
	}
	for _, full := range workloads {
		sp := *full
		sp.n, sp.pool = 2000, 64
		t.Run(sp.name, func(t *testing.T) {
			out := t.TempDir()
			rep, err := runEndToEnd(&sp, 3, time.Second, out, t.Logf)
			if err != nil {
				t.Fatal(err)
			}
			requireMetrics(t, rep, endToEnd)

			const nOps = 300
			rep, err = runTraced(&sp, 3, time.Second, nOps, 1000, out, t.Logf)
			if err != nil {
				t.Fatal(err)
			}
			requireMetrics(t, rep, perLayer)

			data, err := os.ReadFile(filepath.Join(out, "trace-"+sp.name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			var tf traceFile
			if err := json.Unmarshal(data, &tf); err != nil {
				t.Fatal(err)
			}
			dur := map[string][]int64{}
			for _, rung := range sp.rungs {
				dur[rung] = make([]int64, nOps)
			}
			for _, s := range tf.Spans {
				if dur[s.Rung] == nil {
					t.Fatalf("span of unknown rung %q", s.Rung)
				}
				dur[s.Rung][s.Op] = s.EndNS - s.StartNS
			}
			if len(tf.Spans) != nOps*len(sp.rungs) {
				t.Errorf("trace holds %d spans, want %d ops x %d rungs", len(tf.Spans), nOps, len(sp.rungs))
			}
			for i := 0; i < nOps; i++ {
				var selfSum int64
				for r, rung := range sp.rungs {
					self := dur[rung][i]
					if r+1 < len(sp.rungs) {
						self -= dur[sp.rungs[r+1]][i]
					}
					selfSum += self
				}
				if selfSum != dur[sp.top()][i] {
					t.Fatalf("op %d: self times sum to %d ns, top rung took %d ns", i, selfSum, dur[sp.top()][i])
				}
			}
			if entries, _ := os.ReadDir(out); len(entries) != 1 {
				t.Errorf("run left %d entries in the output directory, want only the trace", len(entries))
			}
		})
	}
}

func requireMetrics(t *testing.T, rep *report, defs []metricDef) {
	t.Helper()
	if rep.Failed != 0 || !rep.Correct || rep.Attempted < 1 {
		t.Errorf("attempted %d, failed %d, correct %v", rep.Attempted, rep.Failed, rep.Correct)
	}
	if len(rep.Metrics) != len(defs) {
		t.Errorf("run emitted %d metrics, want %d", len(rep.Metrics), len(defs))
	}
	for _, d := range defs {
		if m, ok := rep.Metrics[d.name]; !ok || m.Unit != d.unit {
			t.Errorf("metric %s: emitted %+v (present %v), want unit %s", d.name, m, ok, d.unit)
		}
	}
}

// TestCompare: identical records compare within; a slower second side
// and a changed exact counter are both reported.
func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, ops, compdists float64) string {
		path := filepath.Join(dir, name)
		e2e := &report{Workload: "table-la", resultLine: resultLine{Correct: true, Attempted: 100}}
		e2e.set("ops_per_s", ops)
		traced := &report{Workload: "table-la", Trace: true, resultLine: resultLine{Correct: true, Attempted: 100}}
		traced.set("core.compdists_per_op", compdists)
		for _, r := range []*report{e2e, traced} {
			if err := appendRecord(path, r); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	base := write("a.jsonl", 1000, 50)
	for _, tc := range []struct {
		name           string
		ops, compdists float64
		within         bool
	}{
		{"same", 1000, 50, true},
		{"faster", 1300, 50, true},
		{"slower", 700, 50, false},
		{"counter", 1000, 51, false},
	} {
		within, err := compareFiles(io.Discard, base, write(tc.name+".jsonl", tc.ops, tc.compdists))
		if err != nil {
			t.Fatal(err)
		}
		if within != tc.within {
			t.Errorf("%s: within = %v, want %v", tc.name, within, tc.within)
		}
	}
}
