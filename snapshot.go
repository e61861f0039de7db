package vdesign

// Durable fleet snapshots: the public face of internal/fleet's
// snapshot/restore (see internal/fleet/snapshot.go for the format). The
// fleet layer adds its own state to the stream's caller blob — the
// tenant registry (registration keys, workload versions, pins, QoS) and
// the registration counter — so a restored fleet's tenants keep the
// identities the orchestrator's assignment, manager state, and primed
// caches are keyed by.
//
// The restore contract: re-create the fleet the same way the original
// was built — same FleetOptions, servers added in the same order
// (including any later removed; the snapshot re-marks them removed),
// and the same live tenants registered by ID with the same workloads —
// then call RestoreFleet before the first Period. The snapshot is
// validated end to end before the fleet is touched, so a corrupted or
// mismatched snapshot leaves the fleet exactly as it was.

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/fleet"
)

// FleetRestoreOptions tunes RestoreFleet; nil means defaults.
type FleetRestoreOptions struct {
	// SkipCachePriming leaves the restored estimate caches cold instead
	// of priming them from the snapshot. Results are identical either
	// way; the first periods just recompute more.
	SkipCachePriming bool
}

const (
	fleetBlobVersion = 1
	// registryRecordMin is the fewest bytes one tenant record can take:
	// two empty strings' u32 lengths and four 8-byte fields.
	registryRecordMin = 2*4 + 4*8
)

// fleetTenantRecord is one live tenant's registry state in the blob.
type fleetTenantRecord struct {
	id    string
	key   string
	wver  int
	pin   int
	gain  float64
	limit float64
}

// Snapshot writes a durable snapshot of the fleet — orchestrator state
// plus the tenant registry — to w. Call it between periods; at least
// one Period must have run (before that there is no orchestrator state
// worth saving: re-create the fleet instead).
func (f *Fleet) Snapshot(w io.Writer) error {
	if f.orch == nil {
		return errors.New("vdesign: no periods have run; nothing to snapshot")
	}
	return f.orch.Snapshot(w, f.encodeRegistry())
}

// SnapshotToFile atomically persists a snapshot at path: the stream is
// written to a temporary file in the same directory, synced, and
// renamed into place, so a crash mid-write can never leave a truncated
// file at path.
func (f *Fleet) SnapshotToFile(path string) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".fleet-snapshot-*")
	if err != nil {
		return fmt.Errorf("vdesign: snapshot: %w", err)
	}
	defer os.Remove(tmp.Name())
	if err := f.Snapshot(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("vdesign: snapshot: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("vdesign: snapshot: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("vdesign: snapshot: %w", err)
	}
	return nil
}

// RestoreFleet restores a snapshot written by Fleet.Snapshot into a
// freshly re-created fleet (see the package comment for the contract:
// same options, same servers in order, same live tenants by ID, no
// periods run yet). On success the fleet continues exactly where the
// snapshotted one left off — the next Period is the snapshot's
// period+1, and its report is bit-identical to what the uninterrupted
// fleet would have produced. On any error the fleet is untouched.
func RestoreFleet(r io.Reader, into *Fleet, opts *FleetRestoreOptions) error {
	if into == nil {
		return errors.New("vdesign: restore into a nil fleet")
	}
	if into.orch != nil {
		return errors.New("vdesign: periods have already run; restore into a freshly built fleet")
	}
	if len(into.machines) == 0 {
		return errors.New("vdesign: restore target has no servers; re-add the snapshotted servers first")
	}
	var ropts *fleet.RestoreOptions
	if opts != nil {
		ropts = &fleet.RestoreOptions{SkipCachePriming: opts.SkipCachePriming}
	}
	orch, blob, err := fleet.Restore(r, into.orchOptions(), ropts)
	if err != nil {
		return fmt.Errorf("vdesign: %w", err)
	}
	seq, records, err := decodeRegistry(blob)
	if err != nil {
		return err
	}
	// The snapshot's live tenant set and the re-registered one must be
	// exactly equal by ID: a missing tenant would strand orchestrator
	// state, an extra one would be a phantom arrival.
	byID := make(map[string]*FleetTenant, len(into.tenants))
	for _, t := range into.tenants {
		if t.removed {
			continue
		}
		byID[t.id] = t
	}
	if len(byID) != len(records) {
		return fmt.Errorf("vdesign: snapshot has %d live tenants, restore target has %d", len(records), len(byID))
	}
	for _, rec := range records {
		if _, ok := byID[rec.id]; !ok {
			return fmt.Errorf("vdesign: snapshot tenant %q is not registered in the restore target", rec.id)
		}
	}
	// All validation passed: commit. Each tenant takes its snapshotted
	// identity — registration key (what the orchestrator's assignment
	// and signatures are keyed by), workload version (what the cache
	// fingerprints carry), pin, and QoS.
	for _, rec := range records {
		t := byID[rec.id]
		t.key = rec.key
		t.wver = rec.wver
		t.pin = rec.pin
		t.qos = QoS{GainFactor: rec.gain, DegradationLimit: rec.limit}
		t.ests = nil
	}
	into.seq = seq
	into.orch = orch
	return nil
}

// RestoreFleetFromFile restores a snapshot persisted by SnapshotToFile.
func RestoreFleetFromFile(path string, into *Fleet, opts *FleetRestoreOptions) error {
	file, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("vdesign: restore: %w", err)
	}
	defer file.Close()
	return RestoreFleet(file, into, opts)
}

// encodeRegistry serializes the registration counter and every live
// tenant's registry state (sorted by ID for a canonical stream) with the
// snapshot's own codec.
func (f *Fleet) encodeRegistry() []byte {
	var live []*FleetTenant
	for _, t := range f.tenants {
		if !t.removed {
			live = append(live, t)
		}
	}
	sort.Slice(live, func(i, j int) bool { return live[i].id < live[j].id })
	var e fleet.SnapEncoder
	e.U32(fleetBlobVersion)
	e.I64(int64(f.seq))
	e.I64(int64(len(live)))
	for _, t := range live {
		e.Str(t.id)
		e.Str(t.key)
		e.I64(int64(t.wver))
		e.I64(int64(t.pin))
		e.F64(t.qos.GainFactor)
		e.F64(t.qos.DegradationLimit)
	}
	return e.Bytes()
}

// decodeRegistry parses the caller blob written by encodeRegistry.
func decodeRegistry(blob []byte) (int, []fleetTenantRecord, error) {
	d := fleet.NewSnapDecoder(blob)
	if v := d.U32(); d.Err() == nil && v != fleetBlobVersion {
		d.Fail("unsupported registry version %d", v)
	}
	seq64 := d.I64()
	if d.Err() == nil && seq64 < 0 {
		d.Fail("negative registration counter %d", seq64)
	}
	n := d.Count(registryRecordMin)
	var records []fleetTenantRecord
	seenID := map[string]bool{}
	for i := 0; i < n && d.Err() == nil; i++ {
		rec := fleetTenantRecord{
			id:    d.Str(),
			key:   d.Str(),
			wver:  int(d.I64()),
			pin:   int(d.I64()),
			gain:  d.F64(),
			limit: d.F64(),
		}
		if d.Err() != nil {
			break
		}
		if rec.id == "" || seenID[rec.id] {
			d.Fail("empty or duplicate tenant ID %q", rec.id)
			break
		}
		seenID[rec.id] = true
		records = append(records, rec)
	}
	if err := d.Finish(); err != nil {
		return 0, nil, fmt.Errorf("vdesign: snapshot tenant registry: %w", err)
	}
	return int(seq64), records, nil
}
