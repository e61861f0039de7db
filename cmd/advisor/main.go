// Command advisor recommends VM resource shares for a set of consolidated
// database tenants described on the command line. Each -tenant flag is
// `name:flavor:benchmark`, where flavor is pg|db2 and benchmark is one of
// tpch1, tpch10 (the 22-query TPC-H mix at SF1/SF10) or tpcc (a 5-warehouse
// transaction mix). QoS can be attached as name:limit=L or name:gain=G.
// With -servers N > 1 the advisor also places the tenants across N
// identical machines (the cluster placement layer) before splitting each
// machine's resources.
//
// With -periods N > 1 the advisor runs the fleet orchestrator instead:
// the tenants are placed once and then driven through N monitoring
// periods of dynamic management, re-examining placement each period
// under the -migration-cost penalty per moved tenant. Heterogeneous
// fleets are described with repeatable -profile cpuGHz:memGB flags (each
// adds one server of that hardware generation; without -profile the
// fleet is -servers identical default machines).
//
// Examples:
//
//	advisor -tenant dss:pg:tpch1 -tenant oltp:db2:tpcc -qos oltp:limit=2.5
//	advisor -servers 2 -tenant a:pg:tpch1 -tenant b:pg:tpch1 -tenant c:db2:tpcc
//	advisor -periods 4 -migration-cost 10 -profile 2.2:8 -profile 1.1:4 \
//	    -tenant a:pg:tpch1 -tenant b:db2:tpcc
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/catalog"
	"repro/internal/obs"
	"repro/internal/profiling"
	"repro/internal/tpcc"
	"repro/internal/tpch"
	"repro/internal/workload"

	vdesign "repro"
)

type tenantFlag []string

func (t *tenantFlag) String() string     { return strings.Join(*t, ",") }
func (t *tenantFlag) Set(v string) error { *t = append(*t, v); return nil }

// tenantSpec is one parsed -tenant flag.
type tenantSpec struct {
	name   string
	flavor vdesign.Flavor
	schema *catalog.Schema
	w      *workload.Workload
}

func main() {
	var tenants, qos, profiles tenantFlag
	flag.Var(&tenants, "tenant", "tenant spec name:flavor:benchmark (repeatable)")
	flag.Var(&qos, "qos", "QoS spec name:limit=L or name:gain=G (repeatable)")
	flag.Var(&profiles, "profile", "fleet server profile cpuGHz:memGB (repeatable; fleet mode only)")
	delta := flag.Float64("delta", 0.05, "greedy step size")
	refine := flag.Bool("refine", false, "apply online refinement after the initial recommendation")
	servers := flag.Int("servers", 1, "number of identical physical servers; > 1 places tenants across machines")
	periods := flag.Int("periods", 1, "monitoring periods; > 1 runs the fleet orchestrator")
	migrationCost := flag.Float64("migration-cost", 0,
		"fleet mode: penalty (gain-weighted seconds) per moved tenant when re-placing")
	localSearch := flag.Int("local-search", 0,
		"post-greedy local-search rounds (tenant moves/swaps) in multi-machine placement; 0 disables (in fleet mode, > 0 also seeds each period's search from the incumbent assignment)")
	admitQoS := flag.Bool("admit-qos", false,
		"fleet mode: reject arrivals no machine can host within their degradation limit (batches admitted jointly)")
	cacheSweep := flag.Int("cache-sweep", 0,
		"fleet mode: drop cache entries untouched for this many periods (0 = never)")
	cellsFlag := flag.String("cells", "0",
		"partition multi-machine placement into cells of at most this many servers (0 disables; \"auto\" turns on fleet-mode latency-driven cell auto-tuning)")
	rebalanceBudget := flag.Int("rebalance-budget", 0,
		"fleet mode: per-period budget of ranked cross-cell rebalance moves, hottest cell pairs first (0 disables)")
	cellTarget := flag.Duration("cell-latency-target", 0,
		"fleet mode with -cells=auto: per-cell p95 compute-time target (0 = 50ms)")
	parallelism := flag.Int("parallelism", runtime.GOMAXPROCS(0),
		"concurrent what-if estimations (results are identical across settings)")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a pprof heap profile to this file on exit")
	metricsAddr := flag.String("metrics-addr", "",
		"fleet mode: serve /metrics, /healthz, and /debug/pprof on this address (e.g. :9090, or :0 for an ephemeral port)")
	metricsLinger := flag.Duration("metrics-linger", 0,
		"fleet mode: keep the metrics endpoint up this long after the run completes, so scrapers can collect the final state")
	traceOut := flag.String("trace-out", "",
		"fleet mode: write each period's span tree as one JSON line to this file")
	snapshotPath := flag.String("snapshot", "",
		"fleet mode: persist an orchestrator snapshot to this file after the last period (atomic temp-file+rename)")
	restorePath := flag.String("restore", "",
		"fleet mode: restore orchestrator state from this snapshot file before the first period (periods continue from the snapshot's counter)")
	flag.Parse()
	stopProfiles, err := profiling.Start(*cpuprofile, *memprofile)
	if err != nil {
		fatal(err)
	}
	defer stopProfiles()
	if len(tenants) == 0 {
		fmt.Fprintln(os.Stderr, "at least one -tenant is required; see -h")
		os.Exit(2)
	}
	if *servers < 1 {
		fatal(fmt.Errorf("-servers must be at least 1, got %d", *servers))
	}
	if *periods < 1 {
		fatal(fmt.Errorf("-periods must be at least 1, got %d", *periods))
	}

	specs, err := parseTenants(tenants)
	if err != nil {
		fatal(err)
	}
	qosOf, err := parseQoS(qos, specs)
	if err != nil {
		fatal(err)
	}
	cells, autoTune, err := parseCells(*cellsFlag)
	if err != nil {
		fatal(err)
	}
	opts := &vdesign.Options{Delta: *delta, Parallelism: *parallelism, LocalSearch: *localSearch, Cells: cells}

	if *periods > 1 {
		if *refine {
			fatal(fmt.Errorf("-refine applies to single-server runs; the fleet refines per period"))
		}
		if len(profiles) > 0 && *servers != 1 {
			fatal(fmt.Errorf("-servers cannot be combined with -profile; each -profile flag adds one server"))
		}
		machines, err := parseProfiles(profiles, *servers)
		if err != nil {
			fatal(err)
		}
		runFleet(specs, qosOf, machines, *periods, fleetConfig{
			migrationCost:   *migrationCost,
			delta:           *delta,
			parallelism:     *parallelism,
			localSearch:     *localSearch,
			admitQoS:        *admitQoS,
			cacheSweep:      *cacheSweep,
			cells:           cells,
			rebalanceBudget: *rebalanceBudget,
			autoTune:        autoTune,
			cellTarget:      *cellTarget,
			metricsAddr:     *metricsAddr,
			metricsLinger:   *metricsLinger,
			traceOut:        *traceOut,
			snapshotPath:    *snapshotPath,
			restorePath:     *restorePath,
		})
		return
	}
	if *metricsAddr != "" || *traceOut != "" || *metricsLinger != 0 {
		fatal(fmt.Errorf("-metrics-addr/-metrics-linger/-trace-out require fleet mode (-periods > 1)"))
	}
	if *snapshotPath != "" || *restorePath != "" {
		fatal(fmt.Errorf("-snapshot/-restore require fleet mode (-periods > 1)"))
	}
	if *cacheSweep != 0 {
		fatal(fmt.Errorf("-cache-sweep requires fleet mode (-periods > 1)"))
	}
	if *rebalanceBudget != 0 {
		fatal(fmt.Errorf("-rebalance-budget requires fleet mode (-periods > 1)"))
	}
	if autoTune || *cellTarget != 0 {
		fatal(fmt.Errorf("-cells=auto/-cell-latency-target require fleet mode (-periods > 1)"))
	}
	if len(profiles) > 0 {
		fatal(fmt.Errorf("-profile requires fleet mode (-periods > 1)"))
	}
	if *migrationCost != 0 {
		fatal(fmt.Errorf("-migration-cost requires fleet mode (-periods > 1)"))
	}
	if *admitQoS {
		fatal(fmt.Errorf("-admit-qos requires fleet mode (-periods > 1)"))
	}
	if *servers > 1 {
		if *refine {
			fatal(fmt.Errorf("-refine applies to single-server runs; re-place instead"))
		}
		runCluster(specs, qosOf, *servers, opts)
		return
	}
	if *localSearch > 0 {
		fatal(fmt.Errorf("-local-search applies to multi-machine runs (-servers > 1 or -periods > 1)"))
	}
	if cells > 0 {
		fatal(fmt.Errorf("-cells applies to multi-machine runs (-servers > 1 or -periods > 1)"))
	}
	runSingle(specs, qosOf, *refine, opts)
}

// parseCells parses the -cells flag: an integer cell-size bound, or
// "auto" to let the fleet auto-tune the partition (the bound then
// defaults to the fleet size).
func parseCells(v string) (cells int, autoTune bool, err error) {
	if strings.EqualFold(v, "auto") {
		return 0, true, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < 0 {
		return 0, false, fmt.Errorf("bad -cells %q (want a non-negative integer or \"auto\")", v)
	}
	return n, false, nil
}

// parseProfiles maps -profile flags (cpuGHz:memGB) to machine profiles;
// without any, the fleet is `servers` identical default machines.
func parseProfiles(profiles []string, servers int) ([]vdesign.MachineProfile, error) {
	if len(profiles) == 0 {
		return make([]vdesign.MachineProfile, servers), nil
	}
	out := make([]vdesign.MachineProfile, 0, len(profiles))
	for _, spec := range profiles {
		cpuS, memS, ok := strings.Cut(spec, ":")
		if !ok {
			return nil, fmt.Errorf("bad profile spec %q (want cpuGHz:memGB)", spec)
		}
		cpu, err := strconv.ParseFloat(cpuS, 64)
		if err != nil {
			return nil, fmt.Errorf("bad profile cpu %q: %w", cpuS, err)
		}
		mem, err := strconv.ParseFloat(memS, 64)
		if err != nil {
			return nil, fmt.Errorf("bad profile memory %q: %w", memS, err)
		}
		if cpu <= 0 || mem <= 0 {
			return nil, fmt.Errorf("profile %q must be positive", spec)
		}
		out = append(out, vdesign.MachineProfile{CPUHz: cpu * 1e9, MemoryBytes: mem * float64(1<<30)})
	}
	return out, nil
}

// fleetConfig bundles the fleet-mode command-line knobs.
type fleetConfig struct {
	migrationCost   float64
	delta           float64
	parallelism     int
	localSearch     int
	admitQoS        bool
	cacheSweep      int
	cells           int
	rebalanceBudget int
	autoTune        bool
	cellTarget      time.Duration
	metricsAddr     string
	metricsLinger   time.Duration
	traceOut        string
	snapshotPath    string
	restorePath     string
}

// runFleet drives the tenants through monitoring periods on a (possibly
// heterogeneous) fleet, reporting placement and tuning per period. One
// machine-score cache persists across the periods, so unchanged machines
// are re-scored from it instead of re-running the advisor.
func runFleet(specs []tenantSpec, qosOf map[string]vdesign.QoS, machines []vdesign.MachineProfile,
	periods int, cfg fleetConfig) {
	var reg *obs.Registry
	if cfg.metricsAddr != "" {
		reg = obs.NewRegistry()
		srv, err := obs.Serve(cfg.metricsAddr, reg)
		if err != nil {
			fatal(err)
		}
		defer srv.Close()
		fmt.Printf("metrics: serving http://%s/metrics\n", srv.Addr)
	}
	var traceSink func(*obs.Span)
	if cfg.traceOut != "" {
		tf, err := os.Create(cfg.traceOut)
		if err != nil {
			fatal(err)
		}
		defer tf.Close()
		traceSink = func(sp *obs.Span) {
			if err := sp.WriteJSON(tf); err != nil {
				fatal(fmt.Errorf("writing trace: %w", err))
			}
		}
	}
	f := vdesign.NewFleet(&vdesign.FleetOptions{
		MigrationCost:     cfg.migrationCost,
		Delta:             cfg.delta,
		Parallelism:       cfg.parallelism,
		LocalSearch:       cfg.localSearch,
		AdmitQoS:          cfg.admitQoS,
		ScoreCacheSweep:   cfg.cacheSweep,
		Cells:             cfg.cells,
		RebalanceBudget:   cfg.rebalanceBudget,
		AutoTuneCells:     cfg.autoTune,
		CellLatencyTarget: cfg.cellTarget,
		Metrics:           reg,
		TraceSink:         traceSink,
	})
	for _, p := range machines {
		if _, err := f.AddServer(p); err != nil {
			fatal(err)
		}
	}
	handles := make([]*vdesign.FleetTenant, len(specs))
	for i, sp := range specs {
		h, err := f.AddTenantWorkload(sp.name, sp.flavor, sp.schema, sp.w)
		if err != nil {
			fatal(err)
		}
		if q, ok := qosOf[sp.name]; ok {
			f.SetQoS(h, q)
		}
		handles[i] = h
	}
	if cfg.restorePath != "" {
		// Restore before the first period: the fleet above was re-created
		// exactly as the snapshotted one (same flags build the same
		// servers and tenants), and picks up where it left off — the next
		// period number continues from the snapshot's counter.
		if err := vdesign.RestoreFleetFromFile(cfg.restorePath, f, nil); err != nil {
			fatal(err)
		}
	}
	var rep *vdesign.FleetPeriodReport
	lsImproved := 0.0
	for p := 1; p <= periods; p++ {
		var err error
		t0 := time.Now()
		rep, err = f.Period()
		if err != nil {
			fatal(err)
		}
		dur := time.Since(t0)
		if rep.Replaced() {
			// Count only improvements the fleet actually deployed: a
			// candidate discarded for stay-put never benefited anyone.
			lsImproved += rep.LocalSearchImprovement()
		}
		line := fmt.Sprintf("period %d: cost=%.1fs migrations=%d rebuilds=%d max-degradation=%.2fx replaced=%v dur=%s",
			rep.Period(), rep.TotalCost(), rep.Migrations(), rep.Rebuilds(),
			rep.MaxDegradation(), rep.Replaced(), dur.Round(time.Microsecond))
		if rejected := rep.Rejected(); len(rejected) > 0 {
			reasons := rep.RejectedReasons()
			parts := make([]string, len(rejected))
			for i, id := range rejected {
				parts[i] = fmt.Sprintf("%s(%s)", id, reasons[i])
			}
			line += fmt.Sprintf(" rejected=%s", strings.Join(parts, ","))
		}
		fmt.Println(line)
	}
	fmt.Printf("\n%-12s %8s %8s %8s %12s\n", "tenant", "server", "cpu", "memory", "degradation")
	for _, h := range handles {
		cpu, mem := rep.Shares(h)
		fmt.Printf("%-12s %8d %7.1f%% %7.1f%% %11.2fx\n",
			h.ID(), rep.ServerOf(h), cpu*100, mem*100, rep.Degradation(h))
	}
	hits, misses, runs := f.ScoreStats()
	scoreN, estN := f.CacheSizes()
	scoreEv, estEv := f.CacheEvictions()
	fmt.Printf("fleet of %d servers, migration cost %.1fs/move; score cache %d hits / %d misses (%d advisor runs); local search improved %.1fs\n",
		f.Servers(), cfg.migrationCost, hits, misses, runs, lsImproved)
	fmt.Printf("cache entries: %d scores (%d evicted), %d estimates (%d evicted)\n",
		scoreN, scoreEv, estN, estEv)
	if cfg.snapshotPath != "" {
		if err := f.SnapshotToFile(cfg.snapshotPath); err != nil {
			fatal(err)
		}
		fmt.Printf("snapshot: wrote %s\n", cfg.snapshotPath)
	}
	if cfg.metricsAddr != "" && cfg.metricsLinger > 0 {
		// Hold the endpoint up so a scraper started alongside the run can
		// still collect the final counters (CI does exactly this).
		fmt.Printf("metrics: lingering %s for scrapers\n", cfg.metricsLinger)
		time.Sleep(cfg.metricsLinger)
	}
}

// runSingle is the paper's single-machine advisor.
func runSingle(specs []tenantSpec, qosOf map[string]vdesign.QoS, refine bool, opts *vdesign.Options) {
	srv, err := vdesign.NewServer()
	if err != nil {
		fatal(err)
	}
	handles := make([]*vdesign.TenantHandle, len(specs))
	for i, sp := range specs {
		h, err := srv.AddTenantWorkload(sp.name, sp.flavor, sp.schema, sp.w)
		if err != nil {
			fatal(err)
		}
		if q, ok := qosOf[sp.name]; ok {
			srv.SetQoS(h, q)
		}
		handles[i] = h
	}
	rec, err := srv.Recommend(opts)
	if err != nil {
		fatal(err)
	}
	if refine {
		rec, err = srv.Refined(rec)
		if err != nil {
			fatal(err)
		}
	}
	fmt.Printf("%-12s %8s %8s %12s %12s\n", "tenant", "cpu", "memory", "est-seconds", "degradation")
	for _, h := range handles {
		cpu, mem := rec.Shares(h)
		fmt.Printf("%-12s %7.1f%% %7.1f%% %12.1f %11.2fx\n",
			h.Name(), cpu*100, mem*100, rec.EstimatedSeconds(h), rec.Degradation(h))
	}
}

// runCluster places the tenants across n identical servers.
func runCluster(specs []tenantSpec, qosOf map[string]vdesign.QoS, n int, opts *vdesign.Options) {
	c, err := vdesign.NewCluster()
	if err != nil {
		fatal(err)
	}
	for s := 0; s < n; s++ {
		c.AddServer()
	}
	handles := make([]*vdesign.ClusterTenant, len(specs))
	for i, sp := range specs {
		h, err := c.AddTenantWorkload(sp.name, sp.flavor, sp.schema, sp.w)
		if err != nil {
			fatal(err)
		}
		if q, ok := qosOf[sp.name]; ok {
			c.SetQoS(h, q)
		}
		handles[i] = h
	}
	rec, err := c.Place(opts)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%-12s %8s %8s %8s %12s %12s\n", "tenant", "server", "cpu", "memory", "est-seconds", "degradation")
	for _, h := range handles {
		cpu, mem := rec.Shares(h)
		fmt.Printf("%-12s %8d %7.1f%% %7.1f%% %12.1f %11.2fx\n",
			h.Name(), rec.ServerOf(h), cpu*100, mem*100, rec.EstimatedSeconds(h), rec.Degradation(h))
	}
	hits, misses, _ := rec.ScoreStats()
	fmt.Printf("total gain-weighted cost: %.1fs over %d servers; score cache %d hits / %d misses; local search improved %.1fs in %d moves\n",
		rec.TotalCost(), n, hits, misses, rec.LocalSearchImprovement(), rec.LocalSearchMoves())
}

// parseTenants maps -tenant flags to specs.
func parseTenants(tenants []string) ([]tenantSpec, error) {
	specs := make([]tenantSpec, 0, len(tenants))
	for _, spec := range tenants {
		parts := strings.Split(spec, ":")
		if len(parts) != 3 {
			return nil, fmt.Errorf("bad tenant spec %q", spec)
		}
		name, flavorS, bench := parts[0], parts[1], parts[2]
		var flavor vdesign.Flavor
		switch flavorS {
		case "pg":
			flavor = vdesign.PostgreSQL
		case "db2":
			flavor = vdesign.DB2
		default:
			return nil, fmt.Errorf("unknown flavor %q (want pg or db2)", flavorS)
		}
		schema, w, err := benchmarkWorkload(bench, name)
		if err != nil {
			return nil, err
		}
		specs = append(specs, tenantSpec{name: name, flavor: flavor, schema: schema, w: w})
	}
	return specs, nil
}

// parseQoS maps -qos flags to per-tenant settings, validating names.
func parseQoS(qos []string, specs []tenantSpec) (map[string]vdesign.QoS, error) {
	known := make(map[string]bool, len(specs))
	for _, sp := range specs {
		known[sp.name] = true
	}
	out := map[string]vdesign.QoS{}
	for _, spec := range qos {
		name, setting, ok := strings.Cut(spec, ":")
		if !ok {
			return nil, fmt.Errorf("bad qos spec %q", spec)
		}
		if !known[name] {
			return nil, fmt.Errorf("qos for unknown tenant %q", name)
		}
		key, valS, ok := strings.Cut(setting, "=")
		if !ok {
			return nil, fmt.Errorf("bad qos setting %q", setting)
		}
		v, err := strconv.ParseFloat(valS, 64)
		if err != nil {
			return nil, err
		}
		q := out[name]
		switch key {
		case "limit":
			q.DegradationLimit = v
		case "gain":
			q.GainFactor = v
		default:
			return nil, fmt.Errorf("unknown qos key %q", key)
		}
		out[name] = q
	}
	return out, nil
}

// benchmarkWorkload maps a benchmark keyword to (schema, workload).
func benchmarkWorkload(bench, name string) (*catalog.Schema, *workload.Workload, error) {
	switch bench {
	case "tpch1", "tpch10":
		sf := 1.0
		if bench == "tpch10" {
			sf = 10
		}
		w := &workload.Workload{Name: name}
		for q := 1; q <= tpch.QueryCount; q++ {
			w.Statements = append(w.Statements, tpch.Statement(q))
		}
		return tpch.Schema(sf), w, nil
	case "tpcc":
		return tpcc.Schema(5), tpcc.Mix(5, 8, 1), nil
	}
	return nil, nil, fmt.Errorf("unknown benchmark %q (want tpch1, tpch10, or tpcc)", bench)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "advisor:", err)
	os.Exit(1)
}
