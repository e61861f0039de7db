package calibrate

import (
	"sync"
	"testing"

	"repro/internal/vmsim"
)

// freshMachines counts the machines freshMachine has built.
var freshMachines int

// freshMachine returns a default machine whose I/O contention factor no
// earlier call in this process has used: a profile nothing has
// calibrated yet. The calibration cache lives as long as the process,
// and `go test -count=N` runs every test N times in one process, so a
// test that counts first-use calibrations must not reuse a profile.
func freshMachine() *vmsim.Machine {
	freshMachines++
	return vmsim.New(vmsim.DefaultHardware(), 10+float64(freshMachines)/4)
}

func TestSharedCalibrationRunsOncePerProfile(t *testing.T) {
	m := vmsim.Default()
	pg1, err := PGFor(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	db1, err := DB2For(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	before := Runs()
	// Same profile, different *Machine value: both must come from cache.
	pg2, err := PGFor(vmsim.Default(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	db2, err := DB2For(vmsim.Default(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := Runs() - before; got != 0 {
		t.Fatalf("second lookup ran %d calibrations, want 0", got)
	}
	if pg1 != pg2 || db1 != db2 {
		t.Fatal("cache must return the identical result pointer per profile")
	}
}

func TestSharedCalibrationDistinctProfiles(t *testing.T) {
	base := vmsim.Default()
	if _, err := PGFor(base, Options{}); err != nil {
		t.Fatal(err)
	}
	before := Runs()
	// A different I/O contention factor is a different profile: it changes
	// the renormalization microbenchmarks, so it must calibrate afresh.
	noisy := freshMachine()
	pgNoisy, err := PGFor(noisy, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := Runs() - before; got != 1 {
		t.Fatalf("distinct profile ran %d calibrations, want 1", got)
	}
	pgBase, err := PGFor(base, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if pgNoisy == pgBase {
		t.Fatal("distinct profiles must not share a calibration result")
	}
	if pgNoisy.RenormSeconds == pgBase.RenormSeconds {
		t.Fatal("a higher I/O contention must change the renormalization factor")
	}
	// Distinct calibration options are a distinct profile too.
	before = Runs()
	if _, err := PGFor(noisy, Options{MemShare: 0.25}); err != nil {
		t.Fatal(err)
	}
	if got := Runs() - before; got != 1 {
		t.Fatalf("distinct options ran %d calibrations, want 1", got)
	}
}

func TestSharedCalibrationConcurrentFirstUse(t *testing.T) {
	// A profile nobody has calibrated yet, requested by many goroutines at
	// once: exactly one calibration may run.
	m := freshMachine()
	before := Runs()
	var wg sync.WaitGroup
	results := make([]*PGResult, 16)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := PGFor(m, Options{})
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = res
		}(i)
	}
	wg.Wait()
	if got := Runs() - before; got != 1 {
		t.Fatalf("concurrent first use ran %d calibrations, want 1", got)
	}
	for i := 1; i < len(results); i++ {
		if results[i] != results[0] {
			t.Fatal("concurrent callers must share one result")
		}
	}
}
