package main

// The untraced (end-to-end) run.

import (
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"time"

	"repro/internal/dbms"
	"repro/internal/vmsim"

	vdesign "repro"
)

// metric is one printed value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// ledger counts operations and check failures. A failed check marks the
// run incorrect and its operation failed; the first few are reported on
// stderr.
type ledger struct {
	attempted, failed int
	problems          int
}

func (l *ledger) fail(op int, err error) {
	l.problems++
	if l.problems <= 5 {
		fmt.Fprintf(os.Stderr, "fleetbench: operation %d: %v\n", op, err)
	}
}

// allocBytes reads the process's cumulative heap allocation without
// stopping the world.
func allocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// liveHeapMB forces a collection and returns the live heap in MB
// (10^6 bytes).
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// setupOnce builds the workload's fleet and runs its first period: the
// set-up that setup_s times, from the first call into the program.
func setupOnce(sh shape, seed int64) (float64, error) {
	g := fleetGen(sh, seed, 0)
	specs := g.population(sh.tenants)
	b := newBench(sh, nil, false)
	t0 := time.Now()
	if _, err := b.build(specs); err != nil {
		return 0, err
	}
	if _, _, err := b.period(); err != nil {
		return 0, err
	}
	return time.Since(t0).Seconds(), nil
}

// childSetup runs setupOnce in a fresh process, so each sample pays for
// calibration like the first set-up of a run does.
func childSetup(sh shape, seed int64) (float64, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(self, "-setup-only", "-workload", sh.name, "-seed", strconv.FormatInt(seed, 10))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return 0, fmt.Errorf("set-up process: %w", err)
	}
	return strconv.ParseFloat(strings.TrimSpace(string(out)), 64)
}

// opSample is what one timed operation measured.
type opSample struct {
	wall   time.Duration
	alloc  uint64
	live   int
	cost   float64
	snapMB float64
}

// session is one fleet driven through a workload's script: set-up,
// warm-up and timed operations, with the checks run on every period.
type session struct {
	sh  shape
	g   *gen
	b   *bench
	led *ledger
	tr  *tracer
	// digests holds every period's report digest, in order, when keep
	// is set.
	digests []uint64
	keep    bool
	// resumed is the last restored fleet of a traced restart run.
	resumed *bench
}

// start builds the fleet, runs and checks its first period, and warms
// up. It returns the set-up time and each profile's first AddServer
// time (its calibration in a fresh process).
func (s *session) start() (time.Duration, []time.Duration, error) {
	specs := s.g.population(s.sh.tenants)
	// On restart the timed work is the resumed fleets' first periods, so
	// only they are observed; the live fleet is the untimed reference.
	s.b = newBench(s.sh, s.tr, !s.sh.restart)
	s.tr.beginOp("setup", 0, false)
	t0 := time.Now()
	cal, err := s.b.build(specs)
	if err != nil {
		return 0, nil, err
	}
	rep, _, err := s.b.period()
	if err != nil {
		return 0, nil, err
	}
	setup := time.Since(t0)
	s.tr.endOp()
	s.record(s.b, rep)
	if err := checkPlacement(viewOf(s.b, rep), s.liveIDs(), s.b.opts.Delta, step{arrivals: len(specs)}); err != nil {
		return 0, nil, fmt.Errorf("check (a) on the first period: %w", err)
	}
	if err := checkServers(s.b, rep, s.g); err != nil {
		return 0, nil, err
	}
	for i := 0; i < s.sh.warmup; i++ {
		s.tr.beginOp("warmup", 0, false)
		rep, _, err := s.b.period()
		s.tr.endOp()
		if err != nil {
			return 0, nil, err
		}
		s.record(s.b, rep)
		if err := checkPlacement(viewOf(s.b, rep), s.liveIDs(), s.b.opts.Delta, step{}); err != nil {
			return 0, nil, fmt.Errorf("check (a) in warm-up: %w", err)
		}
	}
	return setup, cal, nil
}

func (s *session) liveIDs() []string {
	ids := make([]string, len(s.b.live))
	for i, sp := range s.b.live {
		ids[i] = sp.id
	}
	return ids
}

// record keeps the digest of a period's report (of fleet b) when the
// session is a reference or is compared against one. A digest, not the
// report, so that the reference pass holds no more memory than an
// untraced run.
func (s *session) record(b *bench, rep *vdesign.FleetPeriodReport) {
	if s.keep {
		s.digests = append(s.digests, decisionsOf(b, rep).digest())
	}
}

// op runs timed operation k: the script step, then either one period or
// (restart) a snapshot, re-creation, restore and first resumed period,
// checked against the uninterrupted fleet's period. Only the calls into
// the program that the operation is about are timed.
func (s *session) op(k int) (opSample, error) {
	s.tr.beginOp(s.sh.name, k, true)
	defer s.tr.endOp()
	st, err := s.b.script(s.g)
	if err != nil {
		return opSample{}, err
	}
	if !s.sh.restart {
		a0 := allocBytes()
		rep, d, err := s.b.period()
		alloc := allocBytes() - a0
		if err != nil {
			return opSample{}, err
		}
		s.record(s.b, rep)
		sample := opSample{wall: d, alloc: alloc, live: len(s.b.live), cost: rep.TotalCost()}
		if err := checkPlacement(viewOf(s.b, rep), s.liveIDs(), s.b.opts.Delta, st); err != nil {
			return sample, fmt.Errorf("check (a): %w", err)
		}
		return sample, nil
	}
	a0 := allocBytes()
	t0 := time.Now()
	snap, err := s.b.snapshot()
	if err != nil {
		return opSample{}, err
	}
	r, _, err := s.b.recreate(snap, s.tr)
	if err != nil {
		return opSample{}, err
	}
	rrep, _, err := r.period()
	d := time.Since(t0)
	alloc := allocBytes() - a0
	if err != nil {
		return opSample{}, err
	}
	sample := opSample{wall: d, alloc: alloc, live: len(r.live), cost: rrep.TotalCost(), snapMB: float64(len(snap)) / 1e6}
	if s.tr != nil {
		s.resumed = r
	}
	// The uninterrupted fleet's period is the reference (untimed).
	s.tr.untimed()
	lrep, _, err := s.b.period()
	if err != nil {
		return sample, err
	}
	s.record(r, rrep)
	if err := checkPlacement(viewOf(r, rrep), s.liveIDs(), s.b.opts.Delta, st); err != nil {
		return sample, fmt.Errorf("check (a) on the resumed period: %w", err)
	}
	if err := checkPlacement(viewOf(s.b, lrep), s.liveIDs(), s.b.opts.Delta, st); err != nil {
		return sample, fmt.Errorf("check (a) on the uninterrupted period: %w", err)
	}
	if err := sameDecisions(decisionsOf(s.b, lrep), decisionsOf(r, rrep)); err != nil {
		return sample, fmt.Errorf("check (c): %w", err)
	}
	return sample, nil
}

// fixedPoint is what a run reads of each fleet once that fleet's first
// timed operations are done: a fixed point of the seeded script, so these
// readings do not depend on how many operations a faster or slower build
// fits into the window. (The fleet keeps every period's report, so the
// live heap at the end of the window would grow with the operation
// count.)
type fixedPoint struct {
	heapMB, snapMB, actCost, estCost float64
}

// fleetGen seeds fleet j of a run.
func fleetGen(sh shape, seed int64, j int) *gen {
	return newGen(seed, fmt.Sprintf("%s#%d", sh.name, j))
}

// window runs timed operations in whole rounds, one operation each,
// until the window has passed and at least minOps were made, or exactly
// maxOps when maxOps > 0. After operation minOps (or the last one, if
// the window ends earlier) it calls at, whose time is not charged to the
// window. It returns the samples and the number of operations attempted.
func (s *session) window(seconds float64, minOps, maxOps int, at func(ops []opSample) error) ([]opSample, int, error) {
	var out []opSample
	t0 := time.Now()
	// A hard stop keeps a much slower build inside the run's time limit:
	// all of a run's windows together stop after twice the run length
	// plus 40 s, short of the minimum operation count if need be.
	limit := time.Duration((2*seconds*float64(s.sh.fleets) + 40) / float64(s.sh.fleets) * float64(time.Second))
	fixed := false
	k := 1
	for ; ; k++ {
		if maxOps > 0 {
			if k > maxOps {
				break
			}
		} else if since := time.Since(t0); (since.Seconds() >= seconds && k > minOps) || since > limit {
			break
		}
		s.led.attempted++
		sample, err := s.op(k)
		if err != nil {
			s.led.failed++
			s.led.fail(k, err)
		}
		if sample.wall > 0 {
			out = append(out, sample)
		}
		if k == minOps && at != nil {
			p0 := time.Now()
			if err := at(out); err != nil {
				return nil, 0, err
			}
			fixed = true
			t0 = t0.Add(time.Since(p0))
		}
	}
	if !fixed && at != nil {
		if err := at(out); err != nil {
			return nil, 0, err
		}
	}
	return out, k - 1, nil
}

// fleetRun is what one run measured over its fleets.
type fleetRun struct {
	ops   []opSample
	fixed []fixedPoint
	// setup and cal are the first fleet's set-up time and its
	// first-AddServer time per profile, the only ones made in a fresh
	// process.
	setup time.Duration
	cal   []time.Duration
	// counts are the operations attempted on each fleet; digests each
	// fleet's period report digests, when kept.
	counts  []int
	digests [][]uint64
	// gc sums the runtime's GC readings over the timed windows, and
	// layer the program's counters (traced runs only).
	gc    runtimeStats
	layer counters
	// caches are each fleet's score and estimate cache sizes at the end
	// of its window.
	caches [][2]int
	// last is the last fleet, still live when the run returns.
	last *session
}

// runFleets drives the workload's fleets one after another, each from
// its own stream of the run's seed, each for an equal share of the
// window and of the minimum operation count. Several populations per
// run average out what any one happens to contain (how many of its cells
// hold a tenant that never settles, say), which would otherwise make the
// figures differ from seed to seed by more than the bounds allow; one
// fleet at a time keeps the run's memory at one fleet's. With counts
// set, fleet j makes exactly counts[j] operations (the traced pass
// repeating the reference pass); with fixedPoints set, each fleet's
// fixed-point readings are taken.
func runFleets(sh shape, seed int64, seconds float64, led *ledger, tr *tracer, keep bool, counts []int, fixedPoints bool) (*fleetRun, error) {
	fr := &fleetRun{layer: counters{}}
	minOps := (sh.minOps + sh.fleets - 1) / sh.fleets
	for j := 0; j < sh.fleets; j++ {
		tr.beginFleet(j)
		s := &session{sh: sh, g: fleetGen(sh, seed, j), led: led, tr: tr, keep: keep}
		setup, cal, err := s.start()
		if err != nil {
			return nil, fmt.Errorf("fleet %d: %w", j, err)
		}
		if j == 0 {
			fr.setup, fr.cal = setup, cal
		}
		var at func([]opSample) error
		if fixedPoints {
			at = func(ops []opSample) error {
				fp, err := s.readFixedPoint(ops)
				fr.fixed = append(fr.fixed, fp)
				return err
			}
		}
		maxOps := 0
		if counts != nil {
			maxOps = counts[j]
		}
		rt0 := readRuntime()
		var c0 counters
		if tr != nil {
			c0 = readCounters(tr.reg)
		}
		ops, n, err := s.window(seconds/float64(sh.fleets), minOps, maxOps, at)
		if err != nil {
			return nil, fmt.Errorf("fleet %d: %w", j, err)
		}
		fr.gc = fr.gc.plus(readRuntime().minus(rt0))
		if tr != nil {
			fr.layer.addDelta(readCounters(tr.reg), c0)
		}
		fr.ops = append(fr.ops, ops...)
		fr.counts = append(fr.counts, n)
		fr.digests = append(fr.digests, s.digests)
		caches := s.b
		if s.resumed != nil {
			caches = s.resumed
		}
		sc, es := caches.f.CacheSizes()
		fr.caches = append(fr.caches, [2]int{sc, es})
		if j == sh.fleets-1 {
			// Earlier fleets are dropped, so each fleet's heap reading
			// holds that fleet alone.
			fr.last = s
		}
	}
	return fr, nil
}

// actCostPerTenant runs each live tenant's workload at its deployed
// shares on its server's profile, through the benchmark's own vmsim
// machine and DBMS instance, and returns the mean simulated seconds.
func actCostPerTenant(b *bench, rep *vdesign.FleetPeriodReport) (float64, error) {
	machines := make([]*vmsim.Machine, len(profiles))
	for i, p := range profiles {
		machines[i] = machineOf(p)
	}
	total := 0.0
	for _, s := range b.live {
		h := b.handles[s.id]
		srv := rep.ServerOf(h)
		if srv < 0 {
			return 0, fmt.Errorf("tenant %s not placed", s.id)
		}
		cpu, mem := rep.Shares(h)
		m := machines[srv%len(profiles)]
		sec, err := m.RunWorkload(newSystem(s), s.w, dbms.Alloc{CPU: cpu, Mem: mem}.Clamp(0.01))
		if err != nil {
			return 0, err
		}
		total += sec
	}
	return total / float64(len(b.live)), nil
}

// readFixedPoint takes one fleet's fixed-point readings after its
// operations so far: the estimated cost per tenant averaged over them,
// the simulated cost per tenant at the last period's deployed shares, the
// snapshot size (per restart on restart, otherwise one snapshot taken
// now) and the live heap after a forced collection.
func (s *session) readFixedPoint(ops []opSample) (fixedPoint, error) {
	var fp fixedPoint
	var costs, snaps []float64
	for _, o := range ops {
		costs = append(costs, o.cost/float64(o.live))
		snaps = append(snaps, o.snapMB)
	}
	fp.estCost = mean(costs)
	fp.snapMB = mean(snaps)
	rep := s.b.f.Report()
	act, err := actCostPerTenant(s.b, rep[len(rep)-1])
	if err != nil {
		return fp, err
	}
	fp.actCost = act
	if !s.sh.restart {
		snap, err := s.b.snapshot()
		if err != nil {
			return fp, err
		}
		fp.snapMB = float64(len(snap)) / 1e6
	}
	fp.heapMB = liveHeapMB()
	return fp, nil
}

// runMeasured is the untraced run: set-up (its median over several
// processes), then each fleet's warm-up, timed window and fixed-point
// readings.
func runMeasured(sh shape, seed int64, seconds float64) (*result, error) {
	var setupSamples []float64
	for i := 1; i < sh.setups; i++ {
		d, err := childSetup(sh, seed)
		if err != nil {
			return nil, err
		}
		setupSamples = append(setupSamples, d)
	}
	led := &ledger{}
	fr, err := runFleets(sh, seed, seconds, led, nil, false, nil, true)
	if err != nil {
		return nil, err
	}
	setupSamples = append(setupSamples, fr.setup.Seconds())
	if len(fr.ops) == 0 {
		return nil, fmt.Errorf("no timed operation completed")
	}
	var walls, heap, snap, act, est []float64
	var tenantPeriods, totalWall float64
	var alloc uint64
	for _, o := range fr.ops {
		walls = append(walls, float64(o.wall)/float64(time.Millisecond))
		tenantPeriods += float64(o.live)
		totalWall += o.wall.Seconds()
		alloc += o.alloc
	}
	for _, fp := range fr.fixed {
		heap = append(heap, fp.heapMB)
		snap = append(snap, fp.snapMB)
		act = append(act, fp.actCost)
		est = append(est, fp.estCost)
	}
	fmt.Fprintf(os.Stderr, "fleetbench: %s seed %d: %d timed operations %v, set-up samples %.3f s\n",
		sh.name, seed, len(fr.ops), fr.counts, setupSamples)
	return &result{
		Correct:   led.problems == 0,
		Attempted: led.attempted,
		Failed:    led.failed,
		Metrics: map[string]metric{
			"period_ms_p50":         {quantile(walls, 0.5), "ms"},
			"period_ms_p90":         {quantile(walls, 0.9), "ms"},
			"tenant_periods_per_s":  {tenantPeriods / totalWall, "1/s"},
			"setup_s":               {median(setupSamples), "s"},
			"heap_live_mb":          {mean(heap), "MB"},
			"alloc_mb_per_period":   {float64(alloc) / 1e6 / float64(len(fr.ops)), "MB"},
			"snapshot_mb":           {mean(snap), "MB"},
			"est_cost_s_per_tenant": {mean(est), "s"},
			"act_cost_s_per_tenant": {mean(act), "s"},
		},
	}, nil
}
