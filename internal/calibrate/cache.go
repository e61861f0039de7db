package calibrate

import (
	"fmt"
	"sync/atomic"

	"repro/internal/memo"
	"repro/internal/vmsim"
)

// Calibration is a one-time, per-machine-profile cost (§7.2 budgets ~10
// minutes per DBMS on real hardware), and its result depends only on the
// machine's hardware profile, its I/O contention factor, and the
// calibration options — not on which *vmsim.Machine value asked for it.
// This file therefore shares calibrations process-wide: PGFor and DB2For
// return a lazily-computed result keyed by the machine profile, so
// constructing any number of servers, clusters, benchmarks, or examples
// on the same simulated hardware pays for each calibration exactly once.
//
// Each profile's calibration runs at most once even under concurrent
// first requests: the caches are singleflight memo tables. A failed
// calibration is not kept; being deterministic for the profile, a retry
// fails the same way.

// profileKey folds everything a calibration result depends on into a
// deterministic map key.
func profileKey(m *vmsim.Machine, opts Options) string {
	opts = opts.withDefaults()
	return fmt.Sprintf("%v|%v|%v|%v", m.HW, m.IOContention, opts.CPUShares, opts.MemShare)
}

var (
	pgCache  memo.Table[string, *PGResult]
	db2Cache memo.Table[string, *DB2Result]

	// runs counts actual calibration executions (PG or DB2, cached or
	// direct) process-wide.
	runs atomic.Int64
)

// Runs reports how many full calibrations have actually executed in this
// process. It is the hook behind the "a second server performs zero
// additional calibration runs" guarantee: take the count before and after
// a construction and assert the delta.
func Runs() int64 { return runs.Load() }

// PGFor returns the shared PostgreSQL calibration for the machine's
// profile, computing it on first use.
func PGFor(m *vmsim.Machine, opts Options) (*PGResult, error) {
	res, _, err := pgCache.Get(profileKey(m, opts), func() (*PGResult, error) { return CalibratePG(m, opts) })
	return res, err
}

// DB2For returns the shared DB2 calibration for the machine's profile,
// computing it on first use.
func DB2For(m *vmsim.Machine, opts Options) (*DB2Result, error) {
	res, _, err := db2Cache.Get(profileKey(m, opts), func() (*DB2Result, error) { return CalibrateDB2(m, opts) })
	return res, err
}
