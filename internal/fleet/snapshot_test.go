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
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dynmgmt"
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

func snapFrames(t testing.TB, raw []byte) []snapFrame {
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

// snapFixture is the corruption matrix's fleet, settled: its options,
// the inputs it settled on, and its snapshot.
func snapFixture(t testing.TB) (Options, []Tenant, []byte) {
	sf := deltaFleet()
	op := deltaOptions(sf)
	o, err := New(op)
	if err != nil {
		t.Fatal(err)
	}
	ins := sf.inputs(baseTenants())
	settle(t, o, ins, 12)
	var buf bytes.Buffer
	if err := o.Snapshot(&buf, []byte("blob")); err != nil {
		t.Fatal(err)
	}
	return op, ins, buf.Bytes()
}

// snapCorruption is one damaged form of a valid snapshot and what its
// rejection must name ("" for any error).
type snapCorruption struct {
	name, want string
	stream     []byte
}

// snapCorruptions builds the corruption matrix from a valid snapshot:
// foreign magic, unknown and retired versions, truncation at several
// depths, a bit flipped in each section's payload, trailing garbage,
// and semantically invalid payloads behind valid checksums.
func snapCorruptions(t testing.TB, raw []byte) []snapCorruption {
	frames := snapFrames(t, raw)
	frameOf := func(id uint32) snapFrame {
		for _, f := range frames {
			if f.id == id {
				return f
			}
		}
		t.Fatalf("no %s section", sectName[id])
		return snapFrame{}
	}
	var out []snapCorruption
	add := func(name string, stream []byte, want string) {
		out = append(out, snapCorruption{name: name, want: want, stream: stream})
	}
	mutate := func(f func([]byte)) []byte {
		c := append([]byte(nil), raw...)
		f(c)
		return c
	}
	// behindChecksum mutates a section's payload and re-checksums it, so
	// the content checks, not the CRC, must reject the result.
	behindChecksum := func(f snapFrame, edit func([]byte)) []byte {
		return mutate(func(c []byte) {
			edit(c)
			binary.LittleEndian.PutUint32(c[f.payloadEnd:], crc32.ChecksumIEEE(c[f.payloadStart:f.payloadEnd]))
		})
	}

	add("bad magic", mutate(func(c []byte) { c[0] ^= 0xFF }), "magic")
	add("wrong version", mutate(func(c []byte) {
		binary.LittleEndian.PutUint32(c[8:], snapVersion+41)
	}), "version")
	add("version 4 stream", mutate(func(c []byte) {
		binary.LittleEndian.PutUint32(c[8:], 4)
	}), "unsupported format version 4")
	add("empty stream", nil, "magic")

	// Truncations: inside the header, inside a mid-stream section, at
	// the END boundary (the classic partial write), and mid-CRC.
	add("truncated header", raw[:len(snapMagic)+2], "")
	for _, f := range frames {
		if f.id == sectEnd {
			add("dropped END section", raw[:f.start], "END")
			continue
		}
		add(fmt.Sprintf("truncated inside %s", sectName[f.id]), raw[:f.payloadStart+(f.payloadEnd-f.payloadStart)/2], "")
	}
	add("truncated final checksum", raw[:len(raw)-2], "END")
	add("trailing garbage", append(append([]byte(nil), raw...), 0xAB), "trailing")

	// One flipped bit per section payload: the section's CRC must catch
	// it and the error must name the section.
	for _, f := range frames {
		if f.payloadEnd == f.payloadStart {
			continue
		}
		mid := f.payloadStart + (f.payloadEnd-f.payloadStart)/2
		add(fmt.Sprintf("bit flip in %s", sectName[f.id]), mutate(func(c []byte) { c[mid] ^= 0x10 }), sectName[f.id])
	}

	// Point the first assignment entry at a server the topology does not
	// have.
	assign := frameOf(sectAssign)
	if assign.payloadEnd <= assign.payloadStart+8 {
		t.Fatal("fixture snapshot has an empty assignment")
	}
	add("out-of-range server behind a valid checksum", behindChecksum(assign, func(c []byte) {
		p := assign.payloadStart + 8 // skip the entry count
		p += 4 + int(binary.LittleEndian.Uint32(c[p:]))
		binary.LittleEndian.PutUint64(c[p:], 1<<30)
	}), "assigned to server")

	// TOPO: the server count and profiles, then the cell count and per
	// cell its member count and members. Point the first cell's first
	// member past the fleet, or at the second cell's first member.
	topo := frameOf(sectTopo)
	p := topo.payloadStart
	servers := int(binary.LittleEndian.Uint64(raw[p:]))
	p += 8
	for s := 0; s < servers; s++ {
		p += 4 + int(binary.LittleEndian.Uint32(raw[p:]))
	}
	if n := binary.LittleEndian.Uint64(raw[p:]); n < 2 {
		t.Fatalf("fixture snapshot has %d cells, want at least 2", n)
	}
	n0 := int(binary.LittleEndian.Uint64(raw[p+8:]))
	first := p + 16 // past the cell count and the first cell's member count
	second := first + 8*n0 + 8
	if n0 == 0 || binary.LittleEndian.Uint64(raw[second-8:]) == 0 {
		t.Fatal("fixture snapshot's first two cells are not both occupied")
	}
	add("TOPO member past the fleet", behindChecksum(topo, func(c []byte) {
		binary.LittleEndian.PutUint64(c[first:], uint64(servers))
	}), "TOPO")
	add("TOPO server in two cells", behindChecksum(topo, func(c []byte) {
		copy(c[first:first+8], c[second:second+8])
	}), "TOPO")

	// EST: presence byte and cell count, then per cell a string table
	// and its rows. Damage the first row of the first cell that has one.
	est := frameOf(sectEst)
	p = est.payloadStart + 1
	cells := int(binary.LittleEndian.Uint64(raw[p:]))
	p += 8
	rowsAt, nstr := -1, 0
	for c := 0; c < cells && rowsAt < 0; c++ {
		nstr = int(binary.LittleEndian.Uint64(raw[p:]))
		p += 8
		for i := 0; i < nstr; i++ {
			p += 4 + int(binary.LittleEndian.Uint32(raw[p:]))
		}
		rows := int(binary.LittleEndian.Uint64(raw[p:]))
		if rows > 0 {
			rowsAt = p
		}
		p += 8 + rows*estRowBytes
	}
	if rowsAt < 0 {
		t.Fatal("fixture snapshot has no estimate rows")
	}
	row := rowsAt + 8
	add("EST string index past the table", behindChecksum(est, func(c []byte) {
		binary.LittleEndian.PutUint32(c[row:], uint32(nstr))
	}), "EST")
	add("EST share out of range", behindChecksum(est, func(c []byte) {
		binary.LittleEndian.PutUint32(c[row+8:], 1e6+1)
	}), "EST")
	add("EST row count past the bytes left", behindChecksum(est, func(c []byte) {
		binary.LittleEndian.PutUint64(c[rowsAt:], 1<<40)
	}), "EST")

	// MGRS: the manager count, then per manager its previous allocations
	// and each tenant's ID followed by its state. Walk the payload with
	// the stream's own decoder to the first manager holding two tenants,
	// recording where each tenant's ID (length prefix included) sits.
	mgrs := frameOf(sectMgrs)
	d := NewSnapDecoder(raw[mgrs.payloadStart:mgrs.payloadEnd])
	var ids [][2]int // stream offsets [start, end) of each tenant's ID
	for m, nm := 0, d.Count(4); m < nm && len(ids) < 2 && d.Err() == nil; m++ {
		for i, n := 0, d.Count(8); i < n; i++ {
			d.Alloc()
		}
		ids = ids[:0]
		for i, n := 0, d.Count(4); i < n && d.Err() == nil; i++ {
			start := mgrs.payloadStart + d.off
			d.Str()
			ids = append(ids, [2]int{start, mgrs.payloadStart + d.off})
			if d.Bool() {
				decodeModel(d)
			}
			d.F64()
			d.F64()
			d.Bool()
			d.Bool()
		}
	}
	if d.Err() != nil || len(ids) < 2 {
		t.Fatalf("fixture snapshot has no manager with two tenants (%v)", d.Err())
	}
	// spliced replaces stream bytes [from, to) inside a section's payload
	// and re-frames the section with the new length and checksum.
	spliced := func(f snapFrame, from, to int, repl []byte) []byte {
		payload := append(append(append([]byte(nil), raw[f.payloadStart:from]...), repl...), raw[to:f.payloadEnd]...)
		var b bytes.Buffer
		b.Write(raw[:f.start])
		writeSection(&b, f.id, payload)
		b.Write(raw[f.payloadEnd+4:])
		return b.Bytes()
	}
	add("MGRS tenant with an empty ID", spliced(mgrs, ids[0][0], ids[0][1], make([]byte, 4)), "no ID")
	add("MGRS tenant ID twice on one manager", spliced(mgrs, ids[1][0], ids[1][1], raw[ids[0][0]:ids[0][1]]), "duplicate tenant ID")
	return out
}

// The corruption matrix: every damaged form of a valid snapshot must be
// rejected with an error naming what is wrong, and no orchestrator.
// Restore builds a fresh orchestrator only after full validation, so
// rejection can never leave half-restored state: after every rejection
// the pristine stream still restores to a fleet whose next period
// reports as it did before.
func TestFleetSnapshotCorruptionMatrix(t *testing.T) {
	op, ins, raw := snapFixture(t)

	// Control: the pristine stream restores and runs.
	resume := func() *PeriodReport {
		t.Helper()
		o, _, err := Restore(bytes.NewReader(raw), op, nil)
		if err != nil {
			t.Fatalf("pristine snapshot rejected: %v", err)
		}
		rep, err := o.Period(ins)
		if err != nil {
			t.Fatalf("restored fleet failed its next period: %v", err)
		}
		return rep
	}
	want := resume()
	for _, bad := range snapCorruptions(t, raw) {
		ro, blob, err := Restore(bytes.NewReader(bad.stream), op, nil)
		if err == nil {
			t.Fatalf("%s: corrupted snapshot accepted", bad.name)
		}
		if ro != nil || blob != nil {
			t.Fatalf("%s: rejection returned state (%v, %q)", bad.name, ro, blob)
		}
		if !strings.Contains(err.Error(), bad.want) {
			t.Fatalf("%s: error %q does not name %q", bad.name, err, bad.want)
		}
	}
	samePeriodReports(t, "restore after the rejections", []*PeriodReport{resume()}, []*PeriodReport{want})
}

// A manager whose tenants all lack a model — the §6.2 guard discards a
// tenant's model and the rebuild waits for its next period — must
// round-trip: the decoder's element-count bound may not assume a
// tenant's bytes include a model.
func TestManagerStateWithoutModelsRoundTrips(t *testing.T) {
	s := &dynmgmt.StateExport{}
	for i := 0; i < 8; i++ {
		s.Prev = append(s.Prev, core.Allocation{0.125, 0.125})
		s.Tenants = append(s.Tenants, dynmgmt.TenantExport{ID: fmt.Sprintf("t%d", i), PrevAvg: 1, PrevErr: 0.5, HasPrevErr: true})
	}
	var e SnapEncoder
	encodeManagerState(&e, s)
	d := NewSnapDecoder(e.Bytes())
	got := decodeManagerState(d)
	if err := d.Finish(); err != nil {
		t.Fatalf("decoding a valid manager state: %v", err)
	}
	if !reflect.DeepEqual(got, s) {
		t.Fatalf("manager state round-tripped as %+v, want %+v", got, s)
	}
}

// FuzzRestore feeds the decoder arbitrary streams, seeded with the
// corruption matrix's snapshot and every damaged form of it. Restore
// must never panic, and any stream it accepts must yield an orchestrator
// whose next period succeeds on the fixture's inputs.
func FuzzRestore(f *testing.F) {
	op, ins, raw := snapFixture(f)
	f.Add(raw)
	for _, bad := range snapCorruptions(f, raw) {
		f.Add(bad.stream)
	}
	f.Fuzz(func(t *testing.T, stream []byte) {
		o, _, err := Restore(bytes.NewReader(stream), op, nil)
		if err != nil {
			if o != nil {
				t.Fatalf("rejection (%v) returned an orchestrator", err)
			}
			return
		}
		if _, err := o.Period(ins); err != nil {
			t.Fatalf("restored orchestrator failed its next period: %v", err)
		}
	})
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
