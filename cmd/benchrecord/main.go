// Command benchrecord runs the fleet-scale sweep (10 → 1000 machines,
// 10× tenants, cells on; flat baseline at the small sizes) and appends
// the results to BENCH_fleet_scale.json — an append-only history with
// one entry per recorded commit, committed with the repo. A pre-history
// single-record file is imported as the first entry. With -check it
// validates the existing history instead of measuring: CI regenerates
// an entry and runs the check, so a missing, unparseable, or
// stale-schema file fails the build.
//
// Usage:
//
//	benchrecord [-out BENCH_fleet_scale.json] [-note text]
//	benchrecord -check [BENCH_fleet_scale.json]
//	benchrecord -cpuprofile cpu.out -memprofile mem.out
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/profiling"
)

func main() {
	out := flag.String("out", "BENCH_fleet_scale.json", "history file to append to")
	check := flag.Bool("check", false, "validate the history file instead of recording a new entry")
	note := flag.String("note", "", "free-form note stored on the new entry")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile of the sweep to this file")
	memprofile := flag.String("memprofile", "", "write a pprof heap profile after the sweep to this file")
	flag.Parse()

	path := *out
	if flag.NArg() > 0 {
		path = flag.Arg(0)
	}

	if *check {
		data, err := os.ReadFile(path)
		if err != nil {
			fatal(fmt.Errorf("benchrecord: %w (run `make bench-record`)", err))
		}
		if err := experiments.ValidateScaleHistory(data); err != nil {
			fatal(fmt.Errorf("benchrecord: %s: %w", path, err))
		}
		fmt.Printf("benchrecord: %s ok\n", path)
		return
	}

	stopProfiles, err := profiling.Start(*cpuprofile, *memprofile)
	if err != nil {
		fatal(fmt.Errorf("benchrecord: %w", err))
	}

	start := time.Now()
	rec, err := experiments.FleetScaleRecord()
	stopProfiles()
	if err != nil {
		fatal(fmt.Errorf("benchrecord: sweep: %w", err))
	}
	prev, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		fatal(fmt.Errorf("benchrecord: %w", err))
	}
	data, err := experiments.AppendScaleHistory(prev, experiments.ScaleEntry{
		Commit:      gitCommit(),
		Date:        time.Now().UTC().Format("2006-01-02"),
		Note:        *note,
		ScaleRecord: *rec,
	})
	if err != nil {
		fatal(fmt.Errorf("benchrecord: %w", err))
	}
	if err := experiments.ValidateScaleHistory(data); err != nil {
		fatal(fmt.Errorf("benchrecord: generated entry invalid: %w", err))
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("benchrecord: appended to %s (%d points, %s)\n", path, len(rec.Points), time.Since(start).Round(time.Millisecond))
}

// gitCommit names the working tree's HEAD for the history entry;
// outside a git checkout the entry is tagged "unknown".
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	if c := strings.TrimSpace(string(out)); c != "" {
		return c
	}
	return "unknown"
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
