package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// recordSet is one side of a comparison: for every workload, the values
// each metric took over the side's runs, and the failure counts.
type recordSet struct {
	values            map[string]map[string][]float64 // workload → metric → one value per run
	attempted, failed map[string]int
}

func readRecords(path string) (*recordSet, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	rs := &recordSet{values: map[string]map[string][]float64{}, attempted: map[string]int{}, failed: map[string]int{}}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rep report
		if err := json.Unmarshal(sc.Bytes(), &rep); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if rs.values[rep.Workload] == nil {
			rs.values[rep.Workload] = map[string][]float64{}
		}
		for name, m := range rep.Metrics {
			rs.values[rep.Workload][name] = append(rs.values[rep.Workload][name], m.Value)
		}
		rs.attempted[rep.Workload] += rep.Attempted
		rs.failed[rep.Workload] += rep.Failed
	}
	return rs, sc.Err()
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// compareFiles prints, per workload and end-to-end metric, both sides'
// medians, how much worse the second is and whether that stays within
// the metric's bound; then the failure ratios; then every exact counter
// that differs, as a count. It reports false on any "outside", any
// increase in failures, and any exact-counter difference.
func compareFiles(w io.Writer, pathA, pathB string) (bool, error) {
	a, err := readRecords(pathA)
	if err != nil {
		return false, err
	}
	b, err := readRecords(pathB)
	if err != nil {
		return false, err
	}
	within := true
	fmt.Fprintf(w, "%-12s %-12s %14s %14s %9s %7s  %s\n", "workload", "metric", "a", "b", "worse by", "bound", "verdict")
	for _, sp := range workloads {
		va, vb := a.values[sp.name], b.values[sp.name]
		if va == nil || vb == nil {
			continue
		}
		for _, d := range endToEnd {
			if len(va[d.name]) == 0 || len(vb[d.name]) == 0 {
				continue
			}
			ma, mb := median(va[d.name]), median(vb[d.name])
			worse := (mb - ma) / ma
			if d.better == "higher" {
				worse = -worse
			}
			verdict := "within"
			if worse > d.bound {
				verdict, within = "OUTSIDE", false
			}
			fmt.Fprintf(w, "%-12s %-12s %14.4f %14.4f %+8.2f%% %6.0f%%  %s\n", sp.name, d.name, ma, mb, 100*worse, 100*d.bound, verdict)
		}
		fa, fb := ratio(float64(a.failed[sp.name]), float64(a.attempted[sp.name])), ratio(float64(b.failed[sp.name]), float64(b.attempted[sp.name]))
		verdict := "within"
		if fb > fa {
			verdict, within = "OUTSIDE", false
		}
		fmt.Fprintf(w, "%-12s %-12s %14.6f %14.6f %26s\n", sp.name, "fail_ratio", fa, fb, verdict)
	}
	for _, sp := range workloads {
		for _, d := range perLayer {
			va, vb := a.values[sp.name][d.name], b.values[sp.name][d.name]
			if !d.exact || len(va) == 0 || len(vb) == 0 {
				continue
			}
			if diff := median(vb) - median(va); diff != 0 || spread(va) != 0 || spread(vb) != 0 {
				within = false
				fmt.Fprintf(w, "%-12s %-40s a %.4f  b %.4f  differs by %+.4f (exact counter)\n", sp.name, d.name, median(va), median(vb), diff)
			}
		}
	}
	if within {
		fmt.Fprintln(w, "every metric within its bound, no new failures, exact counters identical")
	}
	return within, nil
}

func spread(xs []float64) float64 {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, x := range xs {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	return hi - lo
}
