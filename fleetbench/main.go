// Command fleetbench is the fleet benchmark: it drives the public
// vdesign.Fleet API through one of three seeded workloads of TPC-H and
// TPC-C what-if tenants (steady, drift, restart), checks every period's
// output against independently computed answers, and prints one JSON
// object as its last line of output:
//
//	{"correct": true, "attempted": 120, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones (period latency,
// throughput, set-up time, memory, snapshot size, estimated and
// simulated cost). With -trace 1 the same workload and seed run once
// untraced for reference and once with the program's metrics registry
// and span sink on, plus the benchmark's own spans and a pass of direct
// layer calls, and the metrics are the per-layer ledger. See README.md.
//
// Run it through run.py, which builds it first:
//
//	python3 fleetbench/run.py --workload drift --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

func main() {
	workload := flag.String("workload", "", "workload: steady, drift or restart")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "length of the timed window in seconds")
	trace := flag.Int("trace", 0, "1 prints the per-layer ledger from a traced run instead of the end-to-end metrics")
	traceOut := flag.String("trace-out", "", "with -trace 1, write the benchmark's spans and the program's period trees here as NDJSON")
	setupOnly := flag.Bool("setup-only", false, "build the fleet, run its first period, print the set-up seconds and exit")
	flag.Parse()

	sh, ok := shapes[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "fleetbench: unknown workload %q (want steady, drift or restart)\n", *workload)
		os.Exit(2)
	}
	if *setupOnly {
		d, err := setupOnce(sh, *seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fleetbench:", err)
			os.Exit(1)
		}
		fmt.Println(d)
		return
	}
	var res *result
	var err error
	if *trace != 0 {
		res, err = runTraced(sh, *seed, *seconds, *traceOut)
	} else {
		res, err = runMeasured(sh, *seed, *seconds)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "fleetbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fleetbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}
