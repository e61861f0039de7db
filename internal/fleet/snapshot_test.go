package fleet

// Durability acceptance for the orchestrator snapshot (ROADMAP item 2):
// a fleet restored mid-soak must produce bit-identical subsequent
// reports to the uninterrupted run — caches change work, never results
// — and any corrupted, truncated, or stale-version stream must be
// rejected with a precise error and no orchestrator.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"strings"
	"testing"
)

// snapSoakDriver scripts a deterministic churn scenario: per-period drift
// (t0 every period, t3 every fifth), the baseTenants arrival/departure
// events, two later arrivals, one later departure, and a pinned pack of
// heavy tenants whose release builds the cross-cell pressure the
// rebalancer drains. Two drivers built alike generate identical input
// streams, so the interrupted and uninterrupted runs see the same
// fleet history.
type snapSoakDriver struct {
	sf      *simFleet
	tenants []*simTenant
	heavies []*simTenant
}

func newSnapSoakDriver() *snapSoakDriver {
	return &snapSoakDriver{
		sf: &simFleet{
			profiles: []string{"big", "big", "big", "big"},
			factors:  map[string]float64{"big": 1},
		},
		tenants: baseTenants(),
	}
}

func snapSoakOptions(sf *simFleet) Options {
	op := deltaOptions(sf)
	op.RebalanceBudget = 2
	return op
}

// step advances the scenario to the given period and returns its
// inputs. Inputs capture tenant parameters by value at step time, so a
// recorded input slice replays faithfully even as the driver keeps
// mutating its tenants.
func (d *snapSoakDriver) step(period int) []Tenant {
	d.tenants = drift(d.tenants, period)
	switch period {
	case 8:
		// Heavy arrivals pinned onto server 0: their cell heats up while
		// the pins hold the pressure in place.
		for k := 0; k < 3; k++ {
			h := &simTenant{id: fmt.Sprintf("h%d", k), alpha: 150, gamma: 15, pin: 1}
			d.heavies = append(d.heavies, h)
			d.tenants = append(d.tenants, h)
		}
	case 13:
		d.tenants = append(d.tenants, &simTenant{id: "a13", alpha: 18, gamma: 9})
	case 23:
		d.tenants = append(d.tenants, &simTenant{id: "a23", alpha: 22, gamma: 7, gain: 2})
	case 25:
		// Release the heavy pack inside the compared window: the
		// restored fleet must reproduce the rebalancer's drain exactly.
		for _, h := range d.heavies {
			h.pin = 0
		}
	case 30:
		out := d.tenants[:0]
		for _, st := range d.tenants {
			if st.id != "t4" {
				out = append(out, st)
			}
		}
		d.tenants = out
	}
	if period%5 == 0 {
		for _, st := range d.tenants {
			if st.id == "t3" {
				st.gamma *= 1.06
			}
		}
	}
	return d.sf.inputs(d.tenants)
}

// The headline bar: snapshot a fleet 20 periods into a churn soak,
// restore it, and drive 20 more periods — every report must be
// bit-identical to the uninterrupted run's, whether the estimate caches
// are primed from the snapshot or left cold, and the delta machinery
// must reconverge to the uninterrupted run's dirty-cell stream from the
// second post-restore period on (the first recomputes every occupied
// cell, identically, by design).
func TestFleetSnapshotRestoreMidSoak(t *testing.T) {
	const snapAt, total = 20, 40

	ud := newSnapSoakDriver()
	u, err := New(snapSoakOptions(ud.sf))
	if err != nil {
		t.Fatal(err)
	}
	var uReps []*PeriodReport
	for p := 1; p <= total; p++ {
		rep, err := u.Period(ud.step(p))
		if err != nil {
			t.Fatalf("uninterrupted period %d: %v", p, err)
		}
		uReps = append(uReps, rep)
	}
	// The compared tail must actually exercise the churn surface.
	var moves, arrivals, departures, migrations int
	for _, rep := range uReps[snapAt:] {
		moves += rep.RebalanceMoves
		arrivals += rep.Arrivals
		departures += rep.Departures
		migrations += rep.Migrations
	}
	if moves == 0 || arrivals == 0 || departures == 0 {
		t.Fatalf("soak tail too quiet: %d rebalance moves, %d arrivals, %d departures (migrations %d)",
			moves, arrivals, departures, migrations)
	}

	sd := newSnapSoakDriver()
	s, err := New(snapSoakOptions(sd.sf))
	if err != nil {
		t.Fatal(err)
	}
	for p := 1; p <= snapAt; p++ {
		if _, err := s.Period(sd.step(p)); err != nil {
			t.Fatalf("interrupted period %d: %v", p, err)
		}
	}
	var buf bytes.Buffer
	user := []byte("caller registry blob")
	if err := s.Snapshot(&buf, user); err != nil {
		t.Fatal(err)
	}
	// Record the tail inputs once; both restored fleets replay them.
	var tail [][]Tenant
	for p := snapAt + 1; p <= total; p++ {
		tail = append(tail, sd.step(p))
	}

	for _, tc := range []struct {
		name  string
		ropts *RestoreOptions
	}{
		{"primed caches", nil},
		{"cold caches", &RestoreOptions{SkipCachePriming: true}},
	} {
		r, blob, err := Restore(bytes.NewReader(buf.Bytes()), snapSoakOptions(sd.sf), tc.ropts)
		if err != nil {
			t.Fatalf("%s: restore: %v", tc.name, err)
		}
		if string(blob) != string(user) {
			t.Fatalf("%s: caller blob %q round-tripped as %q", tc.name, user, blob)
		}
		var rReps []*PeriodReport
		for i, ins := range tail {
			rep, err := r.Period(ins)
			if err != nil {
				t.Fatalf("%s: restored period %d: %v", tc.name, snapAt+1+i, err)
			}
			rReps = append(rReps, rep)
		}
		samePeriodReports(t, tc.name, rReps, uReps[snapAt:])
		for i := range rReps {
			if rReps[i].Period != uReps[snapAt+i].Period {
				t.Fatalf("%s: period numbering diverges: %d vs %d",
					tc.name, rReps[i].Period, uReps[snapAt+i].Period)
			}
			if i == 0 {
				continue // the restore period recomputes every occupied cell
			}
			if fmt.Sprint(rReps[i].DirtyCells) != fmt.Sprint(uReps[snapAt+i].DirtyCells) ||
				rReps[i].ReplayedCells != uReps[snapAt+i].ReplayedCells {
				t.Fatalf("%s period %d: delta state diverges: dirty %v/%d vs %v/%d",
					tc.name, rReps[i].Period,
					rReps[i].DirtyCells, rReps[i].ReplayedCells,
					uReps[snapAt+i].DirtyCells, uReps[snapAt+i].ReplayedCells)
			}
		}
	}
}

// A snapshot with the score cache disabled omits the estimate section
// and still restores to a bit-identical continuation.
func TestFleetSnapshotDisabledScoreCache(t *testing.T) {
	sf := deltaFleet()
	op := deltaOptions(sf)
	op.DisableScoreCache = true
	build := func() *Orchestrator {
		t.Helper()
		o, err := New(op)
		if err != nil {
			t.Fatal(err)
		}
		return o
	}
	u, s := build(), build()
	tenants := baseTenants()
	run := func(o *Orchestrator, drift bool) *PeriodReport {
		t.Helper()
		if drift {
			tenants[0].alpha *= 1.05
		}
		rep, err := o.Period(sf.inputs(tenants))
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	for p := 0; p < 3; p++ {
		run(u, true)
		run(s, false)
	}
	var buf bytes.Buffer
	if err := s.Snapshot(&buf, nil); err != nil {
		t.Fatal(err)
	}
	r, blob, err := Restore(&buf, op, nil)
	if err != nil {
		t.Fatal(err)
	}
	if blob != nil {
		t.Fatalf("nil caller blob came back as %q", blob)
	}
	a := run(u, true)
	b := run(r, false)
	samePeriodReports(t, "cacheless restore", []*PeriodReport{b}, []*PeriodReport{a})
}

// snapFrame locates one framed section inside a raw snapshot stream.
type snapFrame struct {
	id                       uint32
	start                    int // frame header offset
	payloadStart, payloadEnd int
}

func snapFrames(t *testing.T, raw []byte) []snapFrame {
	t.Helper()
	off := len(snapMagic) + 4
	var frames []snapFrame
	for off < len(raw) {
		f := snapFrame{
			id:           binary.LittleEndian.Uint32(raw[off:]),
			start:        off,
			payloadStart: off + 8,
		}
		f.payloadEnd = f.payloadStart + int(binary.LittleEndian.Uint32(raw[off+4:]))
		frames = append(frames, f)
		off = f.payloadEnd + 4
		if f.id == sectEnd {
			break
		}
	}
	if len(frames) == 0 || frames[len(frames)-1].id != sectEnd {
		t.Fatalf("snapshot stream has no END section (%d frames)", len(frames))
	}
	return frames
}

// The corruption matrix: every damaged form of a valid snapshot —
// foreign magic, unknown version, truncation at several depths, a bit
// flipped in each section's payload, trailing garbage, and a
// semantically invalid payload behind a valid checksum — must be
// rejected with an error and no orchestrator. Restore builds a fresh
// orchestrator only after full validation, so rejection can never leave
// half-restored state.
func TestFleetSnapshotCorruptionMatrix(t *testing.T) {
	sf := deltaFleet()
	op := deltaOptions(sf)
	o, err := New(op)
	if err != nil {
		t.Fatal(err)
	}
	tenants := baseTenants()
	settle(t, o, sf.inputs(tenants), 12)
	var buf bytes.Buffer
	if err := o.Snapshot(&buf, []byte("blob")); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	frames := snapFrames(t, raw)

	// Control: the pristine stream restores.
	if _, _, err := Restore(bytes.NewReader(raw), op, nil); err != nil {
		t.Fatalf("pristine snapshot rejected: %v", err)
	}

	mustFail := func(name string, stream []byte, wantSub string) {
		t.Helper()
		ro, blob, err := Restore(bytes.NewReader(stream), op, nil)
		if err == nil {
			t.Fatalf("%s: corrupted snapshot accepted", name)
		}
		if ro != nil || blob != nil {
			t.Fatalf("%s: rejection returned state (%v, %q)", name, ro, blob)
		}
		if wantSub != "" && !strings.Contains(err.Error(), wantSub) {
			t.Fatalf("%s: error %q does not name %q", name, err, wantSub)
		}
	}
	mutate := func(f func([]byte)) []byte {
		c := append([]byte(nil), raw...)
		f(c)
		return c
	}

	mustFail("bad magic", mutate(func(c []byte) { c[0] ^= 0xFF }), "magic")
	mustFail("wrong version", mutate(func(c []byte) {
		binary.LittleEndian.PutUint32(c[8:], snapVersion+41)
	}), "version")
	mustFail("empty stream", nil, "magic")

	// Truncations: inside the header, inside a mid-stream section, at
	// the END boundary (the classic partial write), and mid-CRC.
	mustFail("truncated header", raw[:len(snapMagic)+2], "")
	for _, f := range frames {
		if f.id == sectEnd {
			mustFail("dropped END section", raw[:f.start], "END")
			continue
		}
		name := fmt.Sprintf("truncated inside %s", sectName[f.id])
		mustFail(name, raw[:f.payloadStart+(f.payloadEnd-f.payloadStart)/2], "")
	}
	mustFail("truncated final checksum", raw[:len(raw)-2], "END")
	mustFail("trailing garbage", append(append([]byte(nil), raw...), 0xAB), "trailing")

	// One flipped bit per section payload: the section's CRC must catch
	// it and the error must name the section.
	for _, f := range frames {
		if f.payloadEnd == f.payloadStart {
			continue
		}
		mid := f.payloadStart + (f.payloadEnd-f.payloadStart)/2
		name := fmt.Sprintf("bit flip in %s", sectName[f.id])
		mustFail(name, mutate(func(c []byte) { c[mid] ^= 0x10 }), sectName[f.id])
	}

	// A valid checksum over invalid content: point the first assignment
	// entry at a server the topology does not have. The cross-reference
	// validation, not the CRC, must reject it.
	var assign snapFrame
	for _, f := range frames {
		if f.id == sectAssign {
			assign = f
		}
	}
	if assign.payloadEnd <= assign.payloadStart {
		t.Fatal("fixture snapshot has an empty assignment")
	}
	mustFail("out-of-range server behind a valid checksum", mutate(func(c []byte) {
		p := assign.payloadStart + 8 // skip the entry count
		p += 4 + int(binary.LittleEndian.Uint32(c[p:]))
		binary.LittleEndian.PutUint64(c[p:], 1<<30)
		binary.LittleEndian.PutUint32(c[assign.payloadEnd:],
			crc32.ChecksumIEEE(c[assign.payloadStart:assign.payloadEnd]))
	}), "assigned to server")
}

// Restore validates the caller's options against the snapshot: the
// topology-fixed fields must match exactly.
func TestFleetSnapshotOptionMismatch(t *testing.T) {
	sf := deltaFleet()
	op := deltaOptions(sf)
	o, err := New(op)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := o.Period(sf.inputs(baseTenants())); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := o.Snapshot(&buf, nil); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	mustFail := func(name string, bad Options, wantSub string) {
		t.Helper()
		ro, _, err := Restore(bytes.NewReader(raw), bad, nil)
		if err == nil || ro != nil {
			t.Fatalf("%s: mismatched options accepted (%v)", name, err)
		}
		if !strings.Contains(err.Error(), wantSub) {
			t.Fatalf("%s: error %q does not name %q", name, err, wantSub)
		}
	}
	bad := op
	bad.Cells = 3
	mustFail("cells", bad, "Cells")
	bad = op
	bad.DisableScoreCache = true
	mustFail("score cache", bad, "DisableScoreCache")
	bad = op
	bad.Profiles = bad.Profiles[:3]
	mustFail("fleet size", bad, "servers")
	bad = op
	bad.Profiles = append([]string(nil), op.Profiles...)
	bad.Profiles[2] = "small"
	mustFail("profile content", bad, "profile mismatch")
	bad = op
	bad.Profiles = nil
	mustFail("no servers", bad, "no servers")
}

// A restored fleet drops the manager state of machines its first resumed
// period empties, exactly as the uninterrupted fleet does. A restored
// cell has no stored outcome, so the reset cannot hang off one: after
// every tenant of one cell departs, both fleets' machines without a
// tenant hold fresh managers, their next snapshots carry the same
// ASSIGN, TOPO and MGRS bytes, and when the tenants return under the
// same IDs both fleets report identically.
func TestFleetRestoreResetsEmptiedMachines(t *testing.T) {
	sf := deltaFleet()
	op := deltaOptions(sf)
	u, err := New(op)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(op)
	if err != nil {
		t.Fatal(err)
	}
	tenants := baseTenants()
	all := sf.inputs(tenants)
	for p := 0; p < 6; p++ {
		if _, err := u.Period(all); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Period(all); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := s.Snapshot(&buf, nil); err != nil {
		t.Fatal(err)
	}
	r, _, err := Restore(&buf, op, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Every tenant of the cell hosting t0 departs.
	emptied := u.CellOf(u.Assignment()["t0"])
	var stay []*simTenant
	for _, st := range tenants {
		if u.CellOf(u.Assignment()[st.id]) != emptied {
			stay = append(stay, st)
		}
	}
	if len(stay) == 0 || len(stay) == len(tenants) {
		t.Fatalf("setup: %d of %d tenants outside cell %d", len(stay), len(tenants), emptied)
	}
	for _, o := range []*Orchestrator{u, r} {
		if _, err := o.Period(sf.inputs(stay)); err != nil {
			t.Fatal(err)
		}
		occupied := map[int]bool{}
		for _, srv := range o.Assignment() {
			occupied[srv] = true
		}
		for srv, m := range o.machines {
			if !occupied[srv] && !m.mgr.Fresh() {
				t.Fatalf("server %d hosts no tenant but keeps manager state", srv)
			}
		}
	}

	sections := func(o *Orchestrator) map[uint32][]byte {
		t.Helper()
		var buf bytes.Buffer
		if err := o.Snapshot(&buf, nil); err != nil {
			t.Fatal(err)
		}
		raw := buf.Bytes()
		out := map[uint32][]byte{}
		for _, f := range snapFrames(t, raw) {
			out[f.id] = raw[f.payloadStart:f.payloadEnd]
		}
		return out
	}
	want, got := sections(u), sections(r)
	for _, id := range []uint32{sectAssign, sectTopo, sectMgrs} {
		if !bytes.Equal(want[id], got[id]) {
			t.Fatalf("%s section differs after the emptying period: restored %d bytes, uninterrupted %d",
				sectName[id], len(got[id]), len(want[id]))
		}
	}

	a, err := u.Period(all)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Period(all)
	if err != nil {
		t.Fatal(err)
	}
	samePeriodReports(t, "returning tenants", []*PeriodReport{b}, []*PeriodReport{a})
}
