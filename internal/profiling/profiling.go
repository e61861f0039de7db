// Package profiling wires the command-line tools' -cpuprofile and
// -memprofile flags to runtime/pprof.
package profiling

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Start starts a pprof CPU profile and/or arranges a heap profile, per
// the -cpuprofile/-memprofile flags (empty = off). The returned stop
// function ends the CPU profile and writes the heap snapshot; call it
// once, when the measured work is done.
func Start(cpuPath, memPath string) (stop func(), err error) {
	var cpuFile *os.File
	if cpuPath != "" {
		cpuFile, err = os.Create(cpuPath)
		if err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
	}
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				fmt.Fprintf(os.Stderr, "mem profile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the snapshot shows live data
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "mem profile: %v\n", err)
			}
		}
	}, nil
}
