// Command benchmark is the repository's benchmark: it runs one named
// workload from one seed against the metric-index stack, checks every
// answer, and prints every metric by name with its unit, ending with one
// JSON result line. -trace 1 runs the same workload as the layer ladder
// instead and reports the per-layer metrics. See README.md.
//
//	benchmark -workload table-la -seed 1 -seconds 12 -trace 0
//	benchmark -compare a.jsonl b.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"
)

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: table-la, table-color, disk-spb-la, serve-mixed, live-churn")
		seed     = flag.Int64("seed", 1, "seed every input is derived from")
		seconds  = flag.Float64("seconds", 12, "length of the measured window")
		trace    = flag.Int("trace", 0, "1 runs the layer ladder and reports per-layer metrics; 0 reports end-to-end metrics")
		out      = flag.String("out", "benchmark/out", "directory for the trace file and the run's temporary snapshot and WAL")
		record   = flag.String("record", "", "append the run's report to this file, one JSON object per line, for -compare")
		compare  = flag.Bool("compare", false, "compare two record files given as arguments instead of running")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fail(fmt.Errorf("-compare needs two record files"))
		}
		within, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fail(err)
		}
		if !within {
			os.Exit(1)
		}
		return
	}
	sp, err := workloadByName(*workload)
	if err != nil {
		fail(err)
	}
	window := time.Duration(*seconds * float64(time.Second))
	logf := func(format string, args ...any) { fmt.Printf(format+"\n", args...) }
	var rep *report
	if *trace != 0 {
		rep, err = runTraced(sp, *seed, window, traceOps, familyN, *out, logf)
	} else {
		rep, err = runEndToEnd(sp, *seed, window, *out, logf)
	}
	if err != nil {
		fail(err)
	}
	if *record != "" {
		if err := appendRecord(*record, rep); err != nil {
			fail(err)
		}
	}
	if err := rep.print(os.Stdout); err != nil {
		fail(err)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

func appendRecord(path string, rep *report) error {
	line, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
