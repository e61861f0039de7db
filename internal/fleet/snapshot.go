package fleet

// Durable snapshot/restore of the whole orchestrator — ROADMAP item 2,
// the prerequisite for a long-running fleet daemon surviving restarts
// and rolling upgrades.
//
// Format. A snapshot is a small self-describing binary stream:
//
//	magic "VDFLEET\x00" | u32 version | section* | END section
//
// Every section is length-prefixed and checksummed:
//
//	u32 section id | u32 payload length | payload | u32 CRC-32 (IEEE)
//
// Sections appear in one fixed order (META, TOPO, ASSIGN, LAT, MGRS,
// EST, USER, END); all integers are little-endian, floats are IEEE-754
// bits, strings and byte blobs are u32-length-prefixed. The END section
// (id 0, empty payload) closes the stream, so boundary truncation — the
// classic partial-write failure — is detected even when every earlier
// section checks out, and trailing garbage after END is rejected too.
// The shape follows goDB's page/file layer: fixed magic + version up
// front, fixed-width little-endian fields, a checksum over every
// payload, and validation before anything is trusted.
//
// What is serialized — everything a resumed period's RESULT depends on:
// the period counter (META), the cell partition (TOPO), the tenant
// assignment (ASSIGN), the cell latency windows/EWMAs/stale bits that
// steer the auto-tuner (LAT), and every machine manager's
// classification + refined-model state (MGRS); USER carries the
// caller's blob. What is deliberately NOT serialized is state a
// restored fleet rebuilds before reading it: stored cell outcomes and
// the delta bookkeeping around them (per-cell input sequences, settled
// bits, drift signatures) — a restored cell has no stored outcome, so
// every occupied cell recomputes in the first resumed period,
// bit-identically per delta.go's replay ≡ recompute invariant, and that
// period rewrites the bookkeeping — plus machine-score cache contents
// (deterministic re-runs).
//
// EST is the one section that carries work, not results: point
// estimates, deterministic in their key, primed back into the estimate
// caches. It stays because it pays. On fleetbench's restart workload
// (16 servers, 64 tenants; seeds 1–5, 15 s runs alternating with a
// build that wrote EST empty, 2-CPU Linux container) dropping it shrank
// the snapshot from 2.43 MB to 0.076 MB but slowed the first resumed
// period on every seed: p50 259 → 334 ms, p90 294 → 373 ms.
//
// The restore contract: Restore parses and validates the ENTIRE stream
// — magic, version, section order, every CRC, every cross-reference —
// before constructing anything, and builds a brand-new Orchestrator
// rather than mutating one, so a corrupted, truncated, or
// stale-version snapshot is rejected with a precise error and no
// half-restored state can exist. The caller passes the same Options the
// original fleet ran under (the topology-fixed fields — Profiles,
// Cells, DisableScoreCache — are validated against the snapshot; the
// rest, like MigrationCost and Core, must match for bit-identical
// subsequent periods, which only the caller can guarantee).

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/dynmgmt"
	"repro/internal/refine"
	"repro/internal/score"
)

// snapVersion changes whenever the section layout does; a stream of any
// other version is rejected.
const (
	snapMagic   = "VDFLEET\x00"
	snapVersion = 2
)

// Section IDs, in stream order.
const (
	sectEnd    = 0
	sectMeta   = 1
	sectTopo   = 2
	sectAssign = 3
	sectLat    = 4
	sectMgrs   = 5
	sectEst    = 6
	sectUser   = 7
)

var sectName = map[uint32]string{
	sectEnd:    "END",
	sectMeta:   "META",
	sectTopo:   "TOPO",
	sectAssign: "ASSIGN",
	sectLat:    "LAT",
	sectMgrs:   "MGRS",
	sectEst:    "EST",
	sectUser:   "USER",
}

// SnapEncoder appends primitive values to a growing payload buffer in
// the snapshot's wire format: little-endian fixed-width integers,
// IEEE-754 float bits, one-byte bools, and u32-length-prefixed strings.
// It writes every section of the stream, and callers that store their
// own state in the caller blob (the vdesign layer's tenant registry)
// write it with the same encoder. The zero value is ready to use.
type SnapEncoder struct{ buf []byte }

// Bytes returns the encoded payload.
func (e *SnapEncoder) Bytes() []byte { return e.buf }

// U32 appends a little-endian uint32.
func (e *SnapEncoder) U32(v uint32) {
	e.buf = binary.LittleEndian.AppendUint32(e.buf, v)
}

// I64 appends a little-endian int64.
func (e *SnapEncoder) I64(v int64) {
	e.buf = binary.LittleEndian.AppendUint64(e.buf, uint64(v))
}

// F64 appends a float64's IEEE-754 bits.
func (e *SnapEncoder) F64(v float64) {
	e.buf = binary.LittleEndian.AppendUint64(e.buf, math.Float64bits(v))
}

// Bool appends one byte, 1 or 0.
func (e *SnapEncoder) Bool(v bool) {
	if v {
		e.buf = append(e.buf, 1)
	} else {
		e.buf = append(e.buf, 0)
	}
}

// Str appends a u32 length and the string's bytes.
func (e *SnapEncoder) Str(s string) {
	e.U32(uint32(len(s)))
	e.buf = append(e.buf, s...)
}

// Alloc appends an allocation as an int64 count and its float64 shares.
func (e *SnapEncoder) Alloc(a core.Allocation) {
	e.I64(int64(len(a)))
	for _, v := range a {
		e.F64(v)
	}
}

// SnapDecoder consumes what SnapEncoder wrote, latching the first error:
// once an error is set every later read returns the zero value, so
// decode paths can read unconditionally and check Err (or Finish) once.
type SnapDecoder struct {
	buf []byte
	off int
	err error
}

// NewSnapDecoder starts decoding a payload.
func NewSnapDecoder(payload []byte) *SnapDecoder { return &SnapDecoder{buf: payload} }

// Err returns the first decoding error, or nil.
func (d *SnapDecoder) Err() error { return d.err }

// Fail latches a decoding error unless one is already set.
func (d *SnapDecoder) Fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
}

func (d *SnapDecoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || d.off+n > len(d.buf) {
		d.Fail("truncated payload (want %d bytes at offset %d of %d)", n, d.off, len(d.buf))
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

// U32 reads a little-endian uint32.
func (d *SnapDecoder) U32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// I64 reads a little-endian int64.
func (d *SnapDecoder) I64() int64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return int64(binary.LittleEndian.Uint64(b))
}

// F64 reads a float64 from its IEEE-754 bits.
func (d *SnapDecoder) F64() float64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b))
}

// Bool reads one byte, rejecting anything but 0 and 1.
func (d *SnapDecoder) Bool() bool {
	b := d.take(1)
	if b == nil {
		return false
	}
	switch b[0] {
	case 0:
		return false
	case 1:
		return true
	}
	d.Fail("invalid bool byte %d", b[0])
	return false
}

// Str reads a u32-length-prefixed string.
func (d *SnapDecoder) Str() string {
	n := int(d.U32())
	b := d.take(n)
	return string(b)
}

// Count reads a non-negative int64 element count and sanity-bounds it
// by the bytes remaining (each element costs at least min bytes), so a
// corrupted length can never drive a huge allocation.
func (d *SnapDecoder) Count(min int) int {
	n := d.I64()
	if d.err != nil {
		return 0
	}
	if n < 0 || (min > 0 && n > int64(len(d.buf)-d.off)/int64(min)+1) {
		d.Fail("implausible element count %d with %d bytes left", n, len(d.buf)-d.off)
		return 0
	}
	return int(n)
}

// Alloc reads an allocation written by SnapEncoder.Alloc.
func (d *SnapDecoder) Alloc() core.Allocation {
	n := d.Count(8)
	if d.err != nil || n == 0 {
		return nil
	}
	a := make(core.Allocation, n)
	for j := range a {
		a[j] = d.F64()
	}
	return a
}

// Finish returns the first decoding error, or an error when the payload
// was not consumed exactly.
func (d *SnapDecoder) Finish() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.buf) {
		return fmt.Errorf("%d trailing payload bytes", len(d.buf)-d.off)
	}
	return nil
}

// writeSection frames one section: id, payload length, payload, CRC.
func writeSection(out *bytes.Buffer, id uint32, payload []byte) {
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], id)
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(len(payload)))
	out.Write(hdr[:])
	out.Write(payload)
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE(payload))
	out.Write(crc[:])
}

// readSection consumes one framed section, verifying the declared id
// and the payload CRC.
func readSection(d *SnapDecoder, wantID uint32) ([]byte, error) {
	name := sectName[wantID]
	id := d.U32()
	n := int(d.U32())
	if d.err != nil {
		return nil, fmt.Errorf("fleet: snapshot: truncated %s section header", name)
	}
	if id != wantID {
		return nil, fmt.Errorf("fleet: snapshot: expected %s section (id %d), found id %d", name, wantID, id)
	}
	payload := d.take(n)
	sum := d.U32()
	if d.err != nil {
		return nil, fmt.Errorf("fleet: snapshot: truncated %s section (declared %d payload bytes)", name, n)
	}
	if got := crc32.ChecksumIEEE(payload); got != sum {
		return nil, fmt.Errorf("fleet: snapshot: %s section checksum mismatch (stored %08x, computed %08x)", name, sum, got)
	}
	return payload, nil
}

// Snapshot writes a durable snapshot of the orchestrator to w: the
// versioned, checksummed binary stream described at the top of this
// file. user is an opaque caller blob carried verbatim (the vdesign
// layer stores its tenant registry there); nil is fine. Call it between
// periods — it is not synchronized with a running Period.
func (o *Orchestrator) Snapshot(w io.Writer, user []byte) error {
	var out bytes.Buffer
	out.WriteString(snapMagic)
	var ver [4]byte
	binary.LittleEndian.PutUint32(ver[:], snapVersion)
	out.Write(ver[:])

	writeSection(&out, sectMeta, o.encodeMeta())
	writeSection(&out, sectTopo, o.encodeTopo())
	writeSection(&out, sectAssign, o.encodeAssign())
	writeSection(&out, sectLat, o.encodeLat())
	writeSection(&out, sectMgrs, o.encodeManagers())
	writeSection(&out, sectEst, o.encodeEstimates())
	writeSection(&out, sectUser, user)
	writeSection(&out, sectEnd, nil)

	_, err := w.Write(out.Bytes())
	return err
}

func (o *Orchestrator) encodeMeta() []byte {
	var e SnapEncoder
	e.I64(int64(o.opts.Cells))
	e.Bool(o.opts.DisableScoreCache)
	e.I64(int64(o.period))
	return e.buf
}

func (o *Orchestrator) encodeTopo() []byte {
	var e SnapEncoder
	e.I64(int64(len(o.opts.Profiles)))
	for s, p := range o.opts.Profiles {
		e.Str(p)
		e.I64(int64(o.cellOf[s]))
		e.I64(int64(o.localIdx[s]))
	}
	e.I64(int64(len(o.cells)))
	for _, servers := range o.cells {
		e.I64(int64(len(servers)))
		for _, s := range servers {
			e.I64(int64(s))
		}
	}
	return e.buf
}

func (o *Orchestrator) encodeAssign() []byte {
	ids := make([]string, 0, len(o.assignment))
	for id := range o.assignment {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	var e SnapEncoder
	e.I64(int64(len(ids)))
	for _, id := range ids {
		e.Str(id)
		e.I64(int64(o.assignment[id]))
	}
	return e.buf
}

func (o *Orchestrator) encodeLat() []byte {
	var e SnapEncoder
	e.I64(int64(len(o.lat)))
	for c := range o.lat {
		l := &o.lat[c]
		e.F64(l.ewma)
		e.I64(int64(l.n))
		e.I64(int64(l.next))
		e.I64(int64(l.skip))
		e.Bool(l.stale)
		for _, v := range l.win {
			e.F64(v)
		}
	}
	return e.buf
}

func (o *Orchestrator) encodeManagers() []byte {
	var e SnapEncoder
	e.I64(int64(len(o.machines)))
	for _, m := range o.machines {
		encodeManagerState(&e, m.mgr.Export())
	}
	return e.buf
}

func encodeManagerState(e *SnapEncoder, s *dynmgmt.StateExport) {
	e.I64(int64(s.Mode))
	e.I64(int64(len(s.IDs)))
	for _, id := range s.IDs {
		e.Str(id)
	}
	e.I64(int64(len(s.Prev)))
	for _, a := range s.Prev {
		e.Alloc(a)
	}
	e.I64(int64(len(s.Tenants)))
	for _, t := range s.Tenants {
		e.Bool(t.Model != nil)
		if t.Model != nil {
			encodeModel(e, t.Model)
		}
		e.F64(t.PrevAvg)
		e.F64(t.PrevErr)
		e.Bool(t.HasPrevErr)
		e.Bool(t.Converged)
	}
}

func encodeModel(e *SnapEncoder, md *refine.ModelExport) {
	e.I64(int64(md.M))
	e.Bool(md.FirstScaled)
	e.I64(md.Version)
	e.I64(int64(len(md.Intervals)))
	for _, iv := range md.Intervals {
		e.F64(iv.Lo)
		e.F64(iv.Hi)
		e.Str(iv.Plan)
		e.I64(int64(len(iv.Alphas)))
		for _, a := range iv.Alphas {
			e.F64(a)
		}
		e.F64(iv.Beta)
		e.I64(int64(len(iv.Obs)))
		for _, ob := range iv.Obs {
			e.Alloc(ob.Alloc)
			e.F64(ob.Act)
		}
	}
}

func (o *Orchestrator) encodeEstimates() []byte {
	var e SnapEncoder
	e.Bool(!o.opts.DisableScoreCache)
	if o.opts.DisableScoreCache {
		return e.buf
	}
	e.I64(int64(len(o.estimates)))
	for c := range o.estimates {
		entries := o.estimates[c].Export()
		e.I64(int64(len(entries)))
		for _, en := range entries {
			e.Str(en.Key)
			e.F64(en.Seconds)
			e.Str(en.PlanSig)
		}
	}
	return e.buf
}

// RestoreOptions tunes Restore; nil means defaults.
type RestoreOptions struct {
	// SkipCachePriming leaves the restored estimate caches cold instead
	// of priming them with the snapshot's entries. Results are identical
	// either way; the first periods just recompute more.
	SkipCachePriming bool
}

// snapState is a fully-parsed, validated snapshot, staged before any
// orchestrator is built.
type snapState struct {
	cellsOpt          int
	disableScoreCache bool
	period            int
	profiles          []string
	cellOf            []int
	cells             [][]int
	assignment        map[string]int
	lat               []cellLatency
	mgrs              []*dynmgmt.StateExport
	estPresent        bool
	est               [][]score.EstimateEntry
	user              []byte
}

// Restore reads a snapshot written by Snapshot and builds a brand-new
// Orchestrator from it, returning the caller blob stored alongside.
// opts must be the same Options the snapshotted fleet ran under: the
// topology-fixed fields (Profiles — including any servers added or
// removed since New — Cells, DisableScoreCache) are validated against
// the snapshot and mismatch is an error; the remaining fields are taken
// from opts and must match the original for the restored fleet to
// reproduce it bit-identically. The whole stream is parsed and
// validated before anything is constructed — a corrupted, truncated, or
// wrong-version snapshot returns a precise error and no orchestrator.
//
// Restored cells come back dirty (their stored outcomes are not
// serialized), so the first post-restore period recomputes every
// occupied cell — same results, more work — and the delta machinery
// re-settles from period two on.
func Restore(r io.Reader, opts Options, ropts *RestoreOptions) (*Orchestrator, []byte, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, nil, fmt.Errorf("fleet: snapshot: %w", err)
	}
	st, err := parseSnapshot(raw)
	if err != nil {
		return nil, nil, err
	}

	// Validate the caller's options exactly as New would, plus the
	// topology-fixed fields against the snapshot.
	if err := checkOptions(opts); err != nil {
		return nil, nil, err
	}
	if opts.Cells != st.cellsOpt {
		return nil, nil, fmt.Errorf("fleet: snapshot was taken with Cells=%d, restore options have Cells=%d", st.cellsOpt, opts.Cells)
	}
	if opts.DisableScoreCache != st.disableScoreCache {
		return nil, nil, fmt.Errorf("fleet: snapshot was taken with DisableScoreCache=%v, restore options differ", st.disableScoreCache)
	}
	if len(opts.Profiles) != len(st.profiles) {
		return nil, nil, fmt.Errorf("fleet: snapshot has %d servers, restore options have %d", len(st.profiles), len(opts.Profiles))
	}
	for s, p := range st.profiles {
		if opts.Profiles[s] != p {
			return nil, nil, fmt.Errorf("fleet: server %d profile mismatch: snapshot %q, restore options %q", s, p, opts.Profiles[s])
		}
	}

	// Build through New's constructor over the snapshot's partition —
	// never a recomputed one: AddServer, RemoveServer and auto-tune edits
	// leave partitions placement.PartitionCells would not produce — then
	// install the staged state. Nothing below can fail except manager
	// import, which happens before the orchestrator is returned — the
	// partially-built value is simply dropped on error, never observable.
	// Restored cells have no stored outcome, so they are dirty and
	// recompute once, bit-identically (replay ≡ recompute).
	o := newOrchestrator(opts, st.cells)
	o.assignment = st.assignment
	o.period = st.period
	o.lat = st.lat
	for s, m := range o.machines {
		if err := m.mgr.Import(st.mgrs[s]); err != nil {
			return nil, nil, fmt.Errorf("fleet: snapshot: server %d manager: %w", s, err)
		}
	}
	if st.estPresent && (ropts == nil || !ropts.SkipCachePriming) {
		for c := range o.estimates {
			o.estimates[c].Prime(st.est[c])
		}
	}
	return o, st.user, nil
}

// parseSnapshot decodes and fully validates a snapshot stream.
func parseSnapshot(raw []byte) (*snapState, error) {
	d := NewSnapDecoder(raw)
	magic := d.take(len(snapMagic))
	if d.err != nil || string(magic) != snapMagic {
		return nil, errors.New("fleet: snapshot: bad magic (not a fleet snapshot)")
	}
	ver := d.U32()
	if d.err != nil {
		return nil, errors.New("fleet: snapshot: truncated before format version")
	}
	if ver != snapVersion {
		return nil, fmt.Errorf("fleet: snapshot: unsupported format version %d (this build reads version %d)", ver, snapVersion)
	}

	st := &snapState{}
	type sectionParser struct {
		id    uint32
		parse func(*SnapDecoder) error
	}
	order := []sectionParser{
		{sectMeta, st.parseMeta},
		{sectTopo, st.parseTopo},
		{sectAssign, st.parseAssign},
		{sectLat, st.parseLat},
		{sectMgrs, st.parseMgrs},
		{sectEst, st.parseEst},
		{sectUser, st.parseUser},
	}
	for _, sp := range order {
		payload, err := readSection(d, sp.id)
		if err != nil {
			return nil, err
		}
		pd := NewSnapDecoder(payload)
		if err := sp.parse(pd); err != nil {
			return nil, err
		}
		if err := pd.Finish(); err != nil {
			return nil, fmt.Errorf("fleet: snapshot %s section: %w", sectName[sp.id], err)
		}
	}
	if _, err := readSection(d, sectEnd); err != nil {
		return nil, err
	}
	if d.off != len(d.buf) {
		return nil, fmt.Errorf("fleet: snapshot: %d trailing bytes after END section", len(d.buf)-d.off)
	}
	return st, nil
}

func (st *snapState) parseMeta(d *SnapDecoder) error {
	st.cellsOpt = int(d.I64())
	st.disableScoreCache = d.Bool()
	st.period = int(d.I64())
	if d.err == nil && st.period < 0 {
		d.Fail("negative period counter %d", st.period)
	}
	return nil
}

func (st *snapState) parseTopo(d *SnapDecoder) error {
	ns := d.Count(1)
	if d.err != nil {
		return nil
	}
	if ns == 0 {
		d.Fail("no servers")
		return nil
	}
	st.profiles = make([]string, ns)
	st.cellOf = make([]int, ns)
	localIdx := make([]int, ns)
	for s := 0; s < ns; s++ {
		st.profiles[s] = d.Str()
		st.cellOf[s] = int(d.I64())
		localIdx[s] = int(d.I64())
	}
	nc := d.Count(8)
	if d.err != nil {
		return nil
	}
	if nc == 0 {
		d.Fail("no cells")
		return nil
	}
	st.cells = make([][]int, nc)
	seen := make([]bool, ns)
	for c := 0; c < nc; c++ {
		n := d.Count(8)
		if d.err != nil {
			return nil
		}
		members := make([]int, n)
		for l := 0; l < n; l++ {
			s := int(d.I64())
			if d.err != nil {
				return nil
			}
			if s < 0 || s >= ns {
				d.Fail("cell %d member %d out of range (fleet of %d)", c, s, ns)
				return nil
			}
			if seen[s] {
				d.Fail("server %d appears in two cells", s)
				return nil
			}
			seen[s] = true
			if st.cellOf[s] != c || localIdx[s] != l {
				d.Fail("server %d index mismatch: listed at cell %d slot %d, indexed at cell %d slot %d",
					s, c, l, st.cellOf[s], localIdx[s])
				return nil
			}
			members[l] = s
		}
		st.cells[c] = members
	}
	for s := 0; s < ns; s++ {
		if !seen[s] && st.cellOf[s] != -1 {
			d.Fail("server %d indexed to cell %d but listed in none", s, st.cellOf[s])
			return nil
		}
	}
	return nil
}

func (st *snapState) parseAssign(d *SnapDecoder) error {
	n := d.Count(12)
	if d.err != nil {
		return nil
	}
	st.assignment = make(map[string]int, n)
	for i := 0; i < n; i++ {
		id := d.Str()
		s := int(d.I64())
		if d.err != nil {
			return nil
		}
		if _, dup := st.assignment[id]; dup {
			d.Fail("tenant %q assigned twice", id)
			return nil
		}
		if s < 0 || s >= len(st.profiles) {
			d.Fail("tenant %q assigned to server %d (fleet of %d)", id, s, len(st.profiles))
			return nil
		}
		if st.cellOf[s] < 0 {
			d.Fail("tenant %q assigned to removed server %d", id, s)
			return nil
		}
		st.assignment[id] = s
	}
	return nil
}

func (st *snapState) parseLat(d *SnapDecoder) error {
	nc := d.Count(8*(4+autotuneWindow) + 1)
	if d.err != nil {
		return nil
	}
	if nc != len(st.cells) {
		d.Fail("latency state for %d cells, topology has %d", nc, len(st.cells))
		return nil
	}
	st.lat = make([]cellLatency, nc)
	for c := 0; c < nc; c++ {
		l := &st.lat[c]
		l.ewma = d.F64()
		l.n = int(d.I64())
		l.next = int(d.I64())
		l.skip = int(d.I64())
		l.stale = d.Bool()
		for j := range l.win {
			l.win[j] = d.F64()
		}
		if d.err != nil {
			return nil
		}
		if l.n < 0 || l.n > autotuneWindow || l.next < 0 || l.next >= autotuneWindow || l.skip < 0 {
			d.Fail("cell %d latency window out of range (n=%d next=%d skip=%d)", c, l.n, l.next, l.skip)
			return nil
		}
	}
	return nil
}

func (st *snapState) parseMgrs(d *SnapDecoder) error {
	ns := d.Count(4)
	if d.err != nil {
		return nil
	}
	if ns != len(st.profiles) {
		d.Fail("manager state for %d servers, topology has %d", ns, len(st.profiles))
		return nil
	}
	st.mgrs = make([]*dynmgmt.StateExport, ns)
	for s := 0; s < ns; s++ {
		st.mgrs[s] = decodeManagerState(d)
		if d.err != nil {
			return nil
		}
	}
	return nil
}

func decodeManagerState(d *SnapDecoder) *dynmgmt.StateExport {
	s := &dynmgmt.StateExport{Mode: int(d.I64())}
	nIDs := d.Count(4)
	for i := 0; i < nIDs && d.err == nil; i++ {
		s.IDs = append(s.IDs, d.Str())
	}
	nPrev := d.Count(8)
	for i := 0; i < nPrev && d.err == nil; i++ {
		s.Prev = append(s.Prev, d.Alloc())
	}
	nTen := d.Count(27)
	for i := 0; i < nTen && d.err == nil; i++ {
		var t dynmgmt.TenantExport
		if d.Bool() {
			t.Model = decodeModel(d)
		}
		t.PrevAvg = d.F64()
		t.PrevErr = d.F64()
		t.HasPrevErr = d.Bool()
		t.Converged = d.Bool()
		s.Tenants = append(s.Tenants, t)
	}
	return s
}

func decodeModel(d *SnapDecoder) *refine.ModelExport {
	md := &refine.ModelExport{M: int(d.I64())}
	md.FirstScaled = d.Bool()
	md.Version = d.I64()
	n := d.Count(41)
	for i := 0; i < n && d.err == nil; i++ {
		iv := refine.IntervalExport{Lo: d.F64(), Hi: d.F64(), Plan: d.Str()}
		na := d.Count(8)
		for j := 0; j < na && d.err == nil; j++ {
			iv.Alphas = append(iv.Alphas, d.F64())
		}
		iv.Beta = d.F64()
		no := d.Count(16)
		for j := 0; j < no && d.err == nil; j++ {
			iv.Obs = append(iv.Obs, refine.Obs{Alloc: d.Alloc(), Act: d.F64()})
		}
		md.Intervals = append(md.Intervals, iv)
	}
	return md
}

func (st *snapState) parseEst(d *SnapDecoder) error {
	st.estPresent = d.Bool()
	if d.err != nil {
		return nil
	}
	if st.estPresent == st.disableScoreCache {
		d.Fail("estimate section presence %v contradicts DisableScoreCache=%v", st.estPresent, st.disableScoreCache)
		return nil
	}
	if !st.estPresent {
		return nil
	}
	nc := d.Count(8)
	if d.err != nil {
		return nil
	}
	if nc != len(st.cells) {
		d.Fail("estimate entries for %d cells, topology has %d", nc, len(st.cells))
		return nil
	}
	st.est = make([][]score.EstimateEntry, nc)
	for c := 0; c < nc; c++ {
		n := d.Count(16)
		for i := 0; i < n && d.err == nil; i++ {
			st.est[c] = append(st.est[c], score.EstimateEntry{
				Key:     d.Str(),
				Seconds: d.F64(),
				PlanSig: d.Str(),
			})
		}
		if d.err != nil {
			return nil
		}
	}
	return nil
}

func (st *snapState) parseUser(d *SnapDecoder) error {
	if len(d.buf) > 0 {
		st.user = append([]byte(nil), d.buf...)
	}
	d.off = len(d.buf)
	return nil
}
