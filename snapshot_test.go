package vdesign

// Durability through the public API: snapshot a fleet mid-run to a
// file, rebuild the fleet from scratch, restore, and continue — the
// resumed reports must match the uninterrupted run's. Rejections must
// leave the target fleet untouched and usable.

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/tpch"
)

// snapScenario deterministically rebuilds the same fleet and replays
// the same per-period events, so an uninterrupted run and a
// snapshot/restore run see identical histories.
type snapScenario struct {
	fleet   *Fleet
	tenants []*FleetTenant
}

func newSnapScenario(t *testing.T) *snapScenario {
	t.Helper()
	f := NewFleet(&FleetOptions{MigrationCost: 5, Delta: 0.1})
	for _, p := range []MachineProfile{{}, smallProfile()} {
		if _, err := f.AddServer(p); err != nil {
			t.Fatal(err)
		}
	}
	schema := tpch.Schema(1)
	sc := &snapScenario{fleet: f}
	for i, q := range []int{1, 6, 14} {
		h, err := f.AddTenant(fmt.Sprintf("t%d", i), PostgreSQL, schema, []string{tpch.QueryText(q)})
		if err != nil {
			t.Fatal(err)
		}
		sc.tenants = append(sc.tenants, h)
	}
	f.SetQoS(sc.tenants[1], QoS{DegradationLimit: 4})
	return sc
}

// mutate applies period p's scripted event (if any) to the fleet. The
// restore path replays the pre-snapshot mutations too: the restore
// contract wants the target re-created with the SAME current workloads
// and QoS the snapshotted fleet had, not the ones it started with.
func (sc *snapScenario) mutate(t *testing.T, p int) {
	t.Helper()
	switch p {
	case 2:
		if err := sc.fleet.SetWorkload(sc.tenants[0],
			mustWorkload("t0", tpch.QueryText(1), tpch.QueryText(6))); err != nil {
			t.Fatal(err)
		}
	case 4:
		sc.fleet.SetQoS(sc.tenants[2], QoS{GainFactor: 2})
	}
}

// period applies the scripted event for one period and runs it.
func (sc *snapScenario) period(t *testing.T, p int) *FleetPeriodReport {
	t.Helper()
	sc.mutate(t, p)
	rep, err := sc.fleet.Period()
	if err != nil {
		t.Fatalf("period %d: %v", p, err)
	}
	return rep
}

func TestFleetSnapshotRestorePublicAPI(t *testing.T) {
	const snapAt, total = 3, 5

	ref := newSnapScenario(t)
	var refReps []*FleetPeriodReport
	for p := 1; p <= total; p++ {
		refReps = append(refReps, ref.period(t, p))
	}

	src := newSnapScenario(t)
	if err := src.fleet.Snapshot(&bytes.Buffer{}); err == nil {
		t.Fatal("snapshot before any period should error")
	}
	for p := 1; p <= snapAt; p++ {
		src.period(t, p)
	}
	path := filepath.Join(t.TempDir(), "fleet.snap")
	if err := src.fleet.SnapshotToFile(path); err != nil {
		t.Fatal(err)
	}

	// Restore into a freshly rebuilt fleet and resume: period numbering
	// continues from the snapshot and every report matches the
	// uninterrupted run's. Re-creation replays the pre-snapshot workload
	// and QoS edits so the target carries the snapshotted fleet's CURRENT
	// tenant configuration, as the restore contract requires.
	res := newSnapScenario(t)
	for p := 1; p <= snapAt; p++ {
		res.mutate(t, p)
	}
	if err := RestoreFleetFromFile(path, res.fleet, nil); err != nil {
		t.Fatal(err)
	}
	for p := snapAt + 1; p <= total; p++ {
		a, b := refReps[p-1], res.period(t, p)
		if b.Period() != p || a.Period() != p {
			t.Fatalf("resumed period numbering: %d vs %d, want %d", b.Period(), a.Period(), p)
		}
		if a.TotalCost() != b.TotalCost() || a.Migrations() != b.Migrations() ||
			a.Replaced() != b.Replaced() || a.CandidateCost() != b.CandidateCost() ||
			a.StayCost() != b.StayCost() || a.MaxDegradation() != b.MaxDegradation() {
			t.Fatalf("period %d diverges after restore: cost %v vs %v", p, a.TotalCost(), b.TotalCost())
		}
		for i := range ref.tenants {
			ha, hb := ref.tenants[i], res.tenants[i]
			if a.ServerOf(ha) != b.ServerOf(hb) {
				t.Fatalf("period %d tenant %s: server %d vs %d", p, ha.ID(), a.ServerOf(ha), b.ServerOf(hb))
			}
			ca, ma := a.Shares(ha)
			cb, mb := b.Shares(hb)
			if ca != cb || ma != mb || a.Degradation(ha) != b.Degradation(hb) {
				t.Fatalf("period %d tenant %s: shares/degradation diverge", p, ha.ID())
			}
		}
	}
	// The atomic writer must not leave temp litter next to the file.
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("snapshot directory holds %d entries, want only the snapshot", len(entries))
	}
}

// Every rejection path must leave the target fleet untouched: after a
// failed restore the same fleet still runs its first period from
// scratch.
func TestFleetRestoreRejectionLeavesFleetUsable(t *testing.T) {
	src := newSnapScenario(t)
	for p := 1; p <= 2; p++ {
		src.period(t, p)
	}
	var snap bytes.Buffer
	if err := src.fleet.Snapshot(&snap); err != nil {
		t.Fatal(err)
	}

	// A fleet that already ran refuses to restore.
	if err := RestoreFleet(bytes.NewReader(snap.Bytes()), src.fleet, nil); err == nil {
		t.Fatal("restore into a running fleet should error")
	}

	// Corrupted stream: rejected, and the target then runs normally.
	target := newSnapScenario(t)
	bad := append([]byte(nil), snap.Bytes()...)
	bad[len(bad)/2] ^= 0x04
	if err := RestoreFleet(bytes.NewReader(bad), target.fleet, nil); err == nil {
		t.Fatal("corrupted snapshot should be rejected")
	}
	rep := target.period(t, 1)
	if rep.Period() != 1 || rep.Arrivals() != len(target.tenants) {
		t.Fatalf("rejected restore disturbed the fleet: period %d, arrivals %d", rep.Period(), rep.Arrivals())
	}

	// A tenant-set mismatch is rejected before any state is committed.
	mismatch := newSnapScenario(t)
	mismatch.fleet.RemoveTenant(mismatch.tenants[2])
	if err := RestoreFleet(bytes.NewReader(snap.Bytes()), mismatch.fleet, nil); err == nil {
		t.Fatal("missing tenant should be rejected")
	}

	// No servers yet: rejected with a usable message, fleet untouched.
	empty := NewFleet(nil)
	if err := RestoreFleet(bytes.NewReader(snap.Bytes()), empty, nil); err == nil {
		t.Fatal("restore into a serverless fleet should error")
	}
	if err := RestoreFleet(bytes.NewReader(snap.Bytes()), nil, nil); err == nil {
		t.Fatal("restore into a nil fleet should error")
	}
}

// The tenant registry rides in the snapshot's caller blob, so its bytes
// are part of the snapshot format: a fixed registry must keep encoding
// to the same bytes, decode back to the same records, and reject
// truncated blobs and implausible counts.
func TestFleetRegistryCodecGolden(t *testing.T) {
	f := &Fleet{seq: 7, tenants: []*FleetTenant{
		{id: "b", key: "b#3", wver: 2, qos: QoS{GainFactor: 2, DegradationLimit: 3.5}},
		{id: "a", key: "a#0", pin: 4},
		{id: "gone", key: "gone#1", removed: true},
	}}
	const golden = "0100000007000000000000000200000000000000" +
		"01000000610300000061233000000000000000000400000000000000" +
		"00000000000000000000000000000000" +
		"01000000620300000062233302000000000000000000000000000000" +
		"0000000000000040000000000000" + "0c40"
	blob := f.encodeRegistry()
	if got := hex.EncodeToString(blob); got != golden {
		t.Fatalf("registry encoding changed:\n got %s\nwant %s", got, golden)
	}
	seq, records, err := decodeRegistry(blob)
	if err != nil {
		t.Fatal(err)
	}
	want := []fleetTenantRecord{
		{id: "a", key: "a#0", pin: 4},
		{id: "b", key: "b#3", wver: 2, gain: 2, limit: 3.5},
	}
	if seq != 7 || !reflect.DeepEqual(records, want) {
		t.Fatalf("decoded seq %d records %+v, want 7 %+v", seq, records, want)
	}
	for n := 0; n < len(blob); n++ {
		if _, _, err := decodeRegistry(blob[:n]); err == nil {
			t.Fatalf("registry truncated to %d of %d bytes was accepted", n, len(blob))
		}
	}
	if _, _, err := decodeRegistry(append(append([]byte(nil), blob...), 0)); err == nil {
		t.Fatal("registry with a trailing byte was accepted")
	}
	for _, n := range []int64{-1, 3, 1 << 40} {
		bad := append([]byte(nil), blob...)
		binary.LittleEndian.PutUint64(bad[12:20], uint64(n))
		if _, _, err := decodeRegistry(bad); err == nil {
			t.Fatalf("registry claiming %d tenants was accepted", n)
		}
	}
	badSeq := append([]byte(nil), blob...)
	binary.LittleEndian.PutUint64(badSeq[4:12], uint64(1<<63))
	if _, _, err := decodeRegistry(badSeq); err == nil {
		t.Fatal("registry with a negative registration counter was accepted")
	}
}
