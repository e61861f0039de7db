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
	// Prev holds the previous period's deployed allocations (empty
	// before the first period).
	Prev []core.Allocation
	// Tenants carries each tenant's ID and accumulated refinement state,
	// in the last period's input order.
	Tenants []TenantExport
}

// TenantExport is one tenant's serializable refinement state.
type TenantExport struct {
	ID         string
	Model      *refine.ModelExport
	PrevAvg    float64
	PrevErr    float64
	HasPrevErr bool
	Converged  bool
}

// Export returns the manager's accumulated state as plain data. The
// export is deep-copied: later periods leave it untouched.
func (m *Manager) Export() *StateExport {
	s := &StateExport{Prev: refine.CloneAllocs(m.prev)}
	s.Tenants = make([]TenantExport, len(m.tenants))
	for i, ts := range m.tenants {
		s.Tenants[i] = TenantExport{
			ID:         ts.id,
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
	if len(s.Prev) != 0 && len(s.Prev) != len(s.Tenants) {
		return fmt.Errorf("dynmgmt: import: %d previous allocations for %d tenants", len(s.Prev), len(s.Tenants))
	}
	seen := make(map[string]bool, len(s.Tenants))
	tenants := make([]*tenantState, len(s.Tenants))
	for i, te := range s.Tenants {
		if te.ID == "" {
			return fmt.Errorf("dynmgmt: import: tenant %d has no ID", i)
		}
		if seen[te.ID] {
			return fmt.Errorf("dynmgmt: import: duplicate tenant ID %q", te.ID)
		}
		seen[te.ID] = true
		model, err := refine.ImportModel(te.Model)
		if err != nil {
			return fmt.Errorf("dynmgmt: import: tenant %q: %w", te.ID, err)
		}
		tenants[i] = &tenantState{
			id:         te.ID,
			model:      model,
			prevAvg:    te.PrevAvg,
			prevErr:    te.PrevErr,
			hasPrevErr: te.HasPrevErr,
			converged:  te.Converged,
		}
	}
	m.tenants = tenants
	m.prev = refine.CloneAllocs(s.Prev)
	return nil
}
