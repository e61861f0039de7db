package dynmgmt

// Export/import of a manager's accumulated per-tenant state for durable
// snapshots. State/Snapshot/Restore are the in-memory transactional
// pair; StateExport is their serializable mirror — plain data only, so
// a snapshot layer can encode it without reaching into the manager. An
// imported manager classifies and refines bit-identically to the
// exported one: the change-detection inputs (previous per-query
// averages, previous errors, convergence bits, previous allocations)
// and every refined model's parameters are carried verbatim; only the
// models' process-local lineage IDs are re-issued (see
// refine.ImportModel), which can cost cache re-runs but never changes
// a result.

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/refine"
)

// StateExport is the serializable form of a manager's per-tenant state.
type StateExport struct {
	// Mode is the input-mode lock (0 unset, 1 positional, 2 ID-keyed).
	Mode int
	// IDs keys Tenants by tenant ID in ID-keyed mode (empty otherwise).
	IDs []string
	// Prev holds the previous period's deployed allocations (empty
	// before the first period).
	Prev []core.Allocation
	// Tenants carries each tenant's accumulated refinement state, in
	// the same order as IDs (or positional order).
	Tenants []TenantExport
}

// TenantExport is one tenant's serializable refinement state.
type TenantExport struct {
	Model      *refine.ModelExport
	PrevAvg    float64
	PrevErr    float64
	HasPrevErr bool
	Converged  bool
}

// Export returns the manager's accumulated state as plain data. The
// export is deep-copied: later periods leave it untouched.
func (m *Manager) Export() *StateExport {
	s := &StateExport{
		Mode: int(m.mode),
		IDs:  append([]string(nil), m.ids...),
		Prev: cloneAllocs(m.prev),
	}
	s.Tenants = make([]TenantExport, len(m.tenants))
	for i, ts := range m.tenants {
		s.Tenants[i] = TenantExport{
			Model:      ts.model.Export(),
			PrevAvg:    ts.prevAvg,
			PrevErr:    ts.prevErr,
			HasPrevErr: ts.hasPrevErr,
			Converged:  ts.converged,
		}
	}
	return s
}

// Import replaces the manager's accumulated state with an export,
// validating it first: a failed import leaves the manager untouched.
// The manager's options and hooks (Opts, ForceContinuous, Recommend,
// Metrics) are not part of the export and keep their current values.
func (m *Manager) Import(s *StateExport) error {
	if s == nil {
		return fmt.Errorf("dynmgmt: import: nil state")
	}
	mode := inputMode(s.Mode)
	if mode < modeUnset || mode > modeKeyed {
		return fmt.Errorf("dynmgmt: import: unknown input mode %d", s.Mode)
	}
	if mode == modeKeyed && len(s.IDs) != len(s.Tenants) {
		return fmt.Errorf("dynmgmt: import: %d IDs for %d keyed tenants", len(s.IDs), len(s.Tenants))
	}
	if mode != modeKeyed && len(s.IDs) != 0 {
		return fmt.Errorf("dynmgmt: import: %d IDs on a non-keyed manager", len(s.IDs))
	}
	if len(s.Prev) != 0 && len(s.Prev) != len(s.Tenants) {
		return fmt.Errorf("dynmgmt: import: %d previous allocations for %d tenants", len(s.Prev), len(s.Tenants))
	}
	seen := make(map[string]bool, len(s.IDs))
	for _, id := range s.IDs {
		if id == "" {
			return fmt.Errorf("dynmgmt: import: empty tenant ID on a keyed manager")
		}
		if seen[id] {
			return fmt.Errorf("dynmgmt: import: duplicate tenant ID %q", id)
		}
		seen[id] = true
	}
	tenants := make([]*tenantState, len(s.Tenants))
	for i, te := range s.Tenants {
		model, err := refine.ImportModel(te.Model)
		if err != nil {
			return fmt.Errorf("dynmgmt: import: tenant %d: %w", i, err)
		}
		tenants[i] = &tenantState{
			model:      model,
			prevAvg:    te.PrevAvg,
			prevErr:    te.PrevErr,
			hasPrevErr: te.HasPrevErr,
			converged:  te.Converged,
		}
	}
	m.tenants = tenants
	m.ids = append([]string(nil), s.IDs...)
	m.prev = cloneAllocs(s.Prev)
	m.mode = mode
	return nil
}
