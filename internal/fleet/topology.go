package fleet

// Topology edits between periods: grow the fleet one server at a time,
// retire drained servers, and retune options on a live orchestrator.
// The partition is stable under all three — existing servers never
// change cell, local index, or cache shard, so a topology edit dirties
// only the one cell it touches (AddServer, RemoveServer) or marks every
// cell for recomputation without touching the partition at all
// (SetOptions). Server indexes are append-only: a removed server's
// index is never reused, keeping Tenant.Pin targets and report slots
// stable across edits.

import (
	"errors"
	"fmt"
)

// AddServer grows the fleet by one machine of the given hardware
// profile and returns its server index. The machine joins the existing
// cell with room (fewest machines of that profile, then fewest total,
// then the smaller index) or — when every cell is at Options.Cells —
// founds a new cell with its own cache shards. Existing servers keep
// their cells and local indexes; only the joined cell is marked for
// recomputation, so the next period re-places at most one cell.
func (o *Orchestrator) AddServer(profile string) int {
	target := -1
	if o.opts.Cells <= 0 {
		// Unpartitioned fleet: one cell covers everything.
		target = 0
	} else {
		// Mirror the partitioner's balance goal: join the cell with the
		// fewest machines of this profile (then fewest total, then the
		// smaller index) among cells with room.
		profCount := func(c int) int {
			n := 0
			for _, p := range o.cellProfiles[c] {
				if p == profile {
					n++
				}
			}
			return n
		}
		for c := range o.cells {
			if len(o.cells[c]) >= o.opts.Cells {
				continue
			}
			if target < 0 {
				target = c
				continue
			}
			pc, pt := profCount(c), profCount(target)
			if pc < pt ||
				(pc == pt && len(o.cells[c]) < len(o.cells[target])) {
				target = c
			}
		}
	}
	s := len(o.machines)
	if target < 0 {
		// Every cell is full (or emptied): found a new cell.
		target = o.foundCell()
	}
	o.opts.Profiles = append(o.opts.Profiles, profile)
	o.cells[target] = append(o.cells[target], s)
	o.cellProfiles[target] = append(o.cellProfiles[target], profile)
	o.cellOf = append(o.cellOf, target)
	o.localIdx = append(o.localIdx, len(o.cells[target])-1)
	o.machines = append(o.machines, newMachine(o.opts, profile, o.scores[target], o.met.dyn))
	// The joined cell's machine set changed: its stored outcome no longer
	// answers for the cell and must not be replayed — and its latency
	// window described the smaller cell, so it restarts with a warmup
	// skip.
	o.delta[target].settled = false
	o.lat[target].edited()
	return s
}

// RemoveServer retires a drained server: it leaves its cell and hosts
// nothing from the next period on. The server must be empty — migrate
// or let its tenants depart first (Tenant.Pin can drain it) — and its
// index is never reused: reports keep a zero-valued slot for it, and
// pinning a tenant to a removed server is an error. Only the server's
// cell is marked for recomputation.
func (o *Orchestrator) RemoveServer(server int) error {
	if server < 0 || server >= len(o.machines) {
		return fmt.Errorf("fleet: no server %d in a fleet of %d", server, len(o.machines))
	}
	c := o.cellOf[server]
	if c < 0 {
		return fmt.Errorf("fleet: server %d already removed", server)
	}
	resident := ""
	for id, s := range o.assignment {
		if s == server && (resident == "" || id < resident) {
			resident = id
		}
	}
	if resident != "" {
		return fmt.Errorf("fleet: server %d still hosts tenant %q", server, resident)
	}
	o.cellOf[server] = -1
	o.localIdx[server] = -1
	servers := o.cells[c][:0]
	profiles := o.cellProfiles[c][:0]
	for _, s := range o.cells[c] {
		if s == server {
			continue
		}
		o.localIdx[s] = len(servers)
		servers = append(servers, s)
		profiles = append(profiles, o.opts.Profiles[s])
	}
	o.cells[c] = servers
	o.cellProfiles[c] = profiles
	// Detach the machine (its manager state belongs to nobody now) and
	// drop the cell's stored outcome: it reports a machine set that no
	// longer exists and must never be replayed.
	o.machines[server] = newMachine(o.opts, o.opts.Profiles[server], nil, o.met.dyn)
	o.delta[c] = cellDelta{}
	o.lat[c].edited()
	return nil
}

// SetOptions retunes a live orchestrator between periods. The topology
// options are fixed after New — Profiles (use AddServer/RemoveServer),
// Cells, and DisableScoreCache — and so is the metric registry; every
// other field may change: MigrationCost, RebalanceBudget, LocalSearch,
// AdmitQoS, the auto-tuner, the cache sweep, the trace sink, and Core
// (applied to placement and the cell fan-out; existing managers keep
// their creation-time Core, which cannot change a report — results are
// parallelism-independent by design). Every cell is marked for
// recomputation, since a stored outcome answers only for the options it
// was computed under; calling it with unchanged options is how a caller
// forces the next period to recompute every occupied cell.
func (o *Orchestrator) SetOptions(opts Options) error {
	if len(opts.Profiles) != len(o.opts.Profiles) {
		return errors.New("fleet: Profiles are fixed after New (use AddServer/RemoveServer)")
	}
	for i, p := range opts.Profiles {
		if p != o.opts.Profiles[i] {
			return errors.New("fleet: Profiles are fixed after New (use AddServer/RemoveServer)")
		}
	}
	if opts.Cells != o.opts.Cells {
		return fmt.Errorf("fleet: Cells is fixed after New (got %d, have %d)", opts.Cells, o.opts.Cells)
	}
	if opts.DisableScoreCache != o.opts.DisableScoreCache {
		return errors.New("fleet: DisableScoreCache is fixed after New")
	}
	if err := checkOptions(opts); err != nil {
		return err
	}
	// The metric registry is fixed after New (families are already
	// registered on it); the trace sink may change freely — it is read
	// once per period.
	opts.Metrics = o.opts.Metrics
	o.opts = opts
	o.opts.Profiles = append([]string(nil), opts.Profiles...)
	for c := range o.delta {
		o.delta[c].settled = false
	}
	return nil
}
