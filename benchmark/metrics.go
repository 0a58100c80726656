package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// metricDef names one metric; BENCHMARK.json lists the same names, units
// and directions, and a test keeps the two in step.
type metricDef struct {
	name, unit, better string
	bound              float64 // end-to-end only: tolerated worsening, as a share
	exact              bool    // per-layer only: a count that repeats bit for bit per seed
}

var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "ops_per_s", unit: "1/s", better: "higher", bound: 0.25},
	{name: "lat_p50_us", unit: "us", better: "lower", bound: 0.25},
	{name: "rss_mb", unit: "MB", better: "lower", bound: 0.15},
}

var perLayer = func() []metricDef {
	defs := []metricDef{
		{name: "core.compdists_per_op", unit: "count", better: "lower", exact: true},
		{name: "core.kernel_ns_per_dist", unit: "ns", better: "lower"},
		{name: "core.kernel_share", unit: "ratio", better: "lower"},
		{name: "pivot.select_s", unit: "s", better: "lower"},
		{name: "pivot.compdists", unit: "count", better: "lower"},
		{name: "table.build_s", unit: "s", better: "lower"},
		{name: "table.build_compdists", unit: "count", better: "lower"},
		{name: "table.knn_us", unit: "us", better: "lower"},
		{name: "table.range_us", unit: "us", better: "lower"},
		{name: "table.self_share", unit: "ratio", better: "lower"},
		{name: "table.allocs_per_op", unit: "count", better: "lower"},
		{name: "table.insert_us", unit: "us", better: "lower"},
		{name: "table.delete_us", unit: "us", better: "lower"},
		{name: "table.mem_mb", unit: "MB", better: "lower"},
		{name: "spb.build_s", unit: "s", better: "lower"},
		{name: "spb.knn_us", unit: "us", better: "lower"},
		{name: "spb.range_us", unit: "us", better: "lower"},
		{name: "spb.self_share", unit: "ratio", better: "lower"},
		{name: "spb.allocs_per_op", unit: "count", better: "lower"},
		{name: "store.page_reads_per_op", unit: "count", better: "lower", exact: true},
		{name: "store.page_cache_hit_ratio", unit: "ratio", better: "higher"},
		{name: "store.build_page_writes", unit: "count", better: "lower"},
		{name: "store.disk_mb", unit: "MB", better: "lower"},
		{name: "plan.parse_us", unit: "us", better: "lower"},
		{name: "plan.pre_ratio", unit: "ratio", better: "higher"},
		{name: "plan.probe_ratio", unit: "ratio", better: "higher"},
		{name: "plan.post_ratio", unit: "ratio", better: "lower"},
		{name: "plan.filtered_knn_us", unit: "us", better: "lower"},
		{name: "plan.filter_cost_ratio", unit: "ratio", better: "lower"},
		{name: "plan.compdists_per_filtered_op", unit: "count", better: "lower"},
		{name: "cache.hit_ratio", unit: "ratio", better: "higher"},
		{name: "cache.hit_us", unit: "us", better: "lower"},
		{name: "cache.miss_overhead_us", unit: "us", better: "lower"},
		{name: "cache.evictions", unit: "count", better: "lower"},
		{name: "epoch.read_self_us", unit: "us", better: "lower"},
		{name: "epoch.write_us", unit: "us", better: "lower"},
		{name: "epoch.write_wait_us", unit: "us", better: "lower"},
		{name: "exec.overhead_us_per_query", unit: "us", better: "lower"},
		{name: "exec.speedup", unit: "ratio", better: "higher"},
		{name: "persist.restore_s", unit: "s", better: "lower"},
		{name: "persist.wal_replay_s", unit: "s", better: "lower"},
		{name: "persist.snapshot_save_s", unit: "s", better: "lower"},
		{name: "persist.snapshot_mb", unit: "MB", better: "lower"},
		{name: "persist.bytes_per_user_byte", unit: "ratio", better: "lower"},
		{name: "persist.wal_append_us", unit: "us", better: "lower"},
		{name: "persist.wal_bytes_per_write", unit: "bytes", better: "lower"},
		{name: "server.handler_self_us", unit: "us", better: "lower"},
		{name: "server.loopback_self_us", unit: "us", better: "lower"},
		{name: "server.knn_us", unit: "us", better: "lower"},
		{name: "server.range_us", unit: "us", better: "lower"},
		{name: "server.knn_filtered_us", unit: "us", better: "lower"},
		{name: "server.batch_us", unit: "us", better: "lower"},
		{name: "server.insert_us", unit: "us", better: "lower"},
		{name: "server.resp_bytes_per_op", unit: "bytes", better: "lower"},
		{name: "server.allocs_per_op", unit: "count", better: "lower"},
		{name: "server.shed_ratio", unit: "ratio", better: "lower"},
		{name: "server.capacity_ops_per_s", unit: "1/s", better: "higher"},
		{name: "runtime.alloc_mb_per_s", unit: "MB/s", better: "lower"},
		{name: "runtime.gc_cycles_per_s", unit: "1/s", better: "lower"},
		{name: "runtime.gc_pause_ms", unit: "ms", better: "lower"},
		{name: "bench.lat_p95_us", unit: "us", better: "lower"},
		{name: "bench.lat_p99_us", unit: "us", better: "lower"},
		{name: "bench.send_lag_p99_us", unit: "us", better: "lower"},
		{name: "bench.span_cost_ns", unit: "ns", better: "lower"},
		{name: "bench.dataset_gen_s", unit: "s", better: "lower"},
		{name: "bench.fail_ratio", unit: "ratio", better: "lower"},
	}
	for _, f := range families {
		// The M-index walks its cluster map in Go's randomised map order,
		// so its page accesses — and the M-index*'s compdists too — do
		// not repeat between runs; every other family's counts do.
		defs = append(defs,
			metricDef{name: "family." + f.metric + ".compdists_per_knn", unit: "count", better: "lower", exact: f.metric != "mindexstar"},
			metricDef{name: "family." + f.metric + ".pa_per_knn", unit: "count", better: "lower", exact: f.metric != "mindex" && f.metric != "mindexstar"})
	}
	return defs
}()

func defOf(name string) (metricDef, bool) {
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range list {
			if d.name == name {
				return d, true
			}
		}
	}
	return metricDef{}, false
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the line a run prints last.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report is one run's outcome: its result line, and what identifies the
// run in a record file.
type report struct {
	resultLine
	Workload string `json:"workload,omitempty"`
	Seed     int64  `json:"seed,omitempty"`
	Trace    bool   `json:"trace,omitempty"`
}

func (r *report) set(name string, v float64) {
	d, ok := defOf(name)
	if !ok {
		panic("benchmark: metric " + name + " is not declared in metrics.go")
	}
	if r.Metrics == nil {
		r.Metrics = map[string]metricValue{}
	}
	r.Metrics[name] = metricValue{Value: v, Unit: d.unit}
}

// print lists every metric by name with its unit, then the result line.
func (r *report) print(w io.Writer) error {
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := r.Metrics[name]
		fmt.Fprintf(w, "%-40s %16.4f %s\n", name, m.Value, m.Unit)
	}
	line, err := json.Marshal(r.resultLine)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
