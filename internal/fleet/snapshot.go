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
// Sections appear in one fixed order (META, TOPO, ASSIGN, MGRS, EST,
// USER, END); all integers are little-endian, floats are IEEE-754
// bits, strings and byte blobs are u32-length-prefixed. The END section
// (id 0, empty payload) closes the stream, so boundary truncation — the
// classic partial-write failure — is detected even when every earlier
// section checks out, and trailing garbage after END is rejected too.
// The shape follows goDB's page/file layer: fixed magic + version up
// front, fixed-width little-endian fields, a checksum over every
// payload, and validation before anything is trusted.
//
// What is serialized — everything a resumed period's RESULT depends on:
// the period counter (META), the cell partition (TOPO: each server's
// profile, then each cell's member list; a server's cell and local
// index follow from the lists), the tenant assignment (ASSIGN), and
// every machine manager's state (MGRS: per server, the previous
// period's allocations, then each tenant's ID followed by its
// classification and refined-model state); USER carries the caller's
// blob. What is deliberately NOT serialized is state a restored fleet
// rebuilds before reading it: stored cell outcomes and the delta
// bookkeeping around them (per-cell input sequences, settled bits,
// drift signatures) — a restored cell has no stored outcome, so every
// occupied cell recomputes in the first resumed period,
// bit-identically per delta.go's replay ≡ recompute invariant,
// and that period rewrites the bookkeeping — plus machine-score cache
// contents (deterministic re-runs).
//
// Nor is the cells' latency feedback (autotune.go): a restored cell's
// window starts empty, like a newly founded cell's. Latency steers three
// things: the dispatch order of dirty cells, which the fixed-order merge
// hides; CellLatencyP95; and AutoTuneCells' partition edits. Those edits
// follow measured wall-clock time, so not even two uninterrupted runs
// make them alike, and a resumed fleet with AutoTuneCells on may split
// or merge cells at other periods than it would have without the
// restart.
//
// EST is the one section that carries work, not results: point
// estimates, deterministic in their key, primed back into the estimate
// caches. Per cell it holds a table of the distinct strings (profile
// keys, fingerprints, plan signatures), then one fixed-width row per
// estimate, least recently used first:
//
//	u32 profile | u32 fingerprint | u32 share 0 | u32 share 1 | f64 seconds | u32 plan signature
//
// Strings are indices into the cell's table; shares are core.AllocKey's
// quantized values (int32 bits). Format 2 wrote every entry's key and
// plan signature in full, although a cell holds few distinct signatures;
// this layout cut fleetbench's snapshots by 87–90% (medians, 15 s runs
// alternating with a format-2 build on a 2-CPU Linux container: restart
// 2.42 → 0.25 MB over seeds 1–10, drift 10.7 → 1.27 MB and steady
// 21.4 → 2.76 MB over seeds 1–3). EST stays because it pays. On the
// restart workload (16 servers, 64 tenants; seeds 1–5, alternating with
// a build that wrote EST empty) dropping the format-2 section shrank the
// snapshot from 2.43 MB to 0.076 MB but slowed the first resumed period
// on every seed: p50 259 → 334 ms, p90 294 → 373 ms.
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
	snapVersion = 5
)

// Section IDs, in stream order.
const (
	sectEnd    = 0
	sectMeta   = 1
	sectTopo   = 2
	sectAssign = 3
	sectMgrs   = 4
	sectEst    = 5
	sectUser   = 6
)

var sectName = map[uint32]string{
	sectEnd:    "END",
	sectMeta:   "META",
	sectTopo:   "TOPO",
	sectAssign: "ASSIGN",
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
	for _, p := range o.opts.Profiles {
		e.Str(p)
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

func (o *Orchestrator) encodeManagers() []byte {
	var e SnapEncoder
	e.I64(int64(len(o.machines)))
	for _, m := range o.machines {
		encodeManagerState(&e, m.mgr.Export())
	}
	return e.buf
}

func encodeManagerState(e *SnapEncoder, s *dynmgmt.StateExport) {
	e.I64(int64(len(s.Prev)))
	for _, a := range s.Prev {
		e.Alloc(a)
	}
	e.I64(int64(len(s.Tenants)))
	for _, t := range s.Tenants {
		e.Str(t.ID)
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

// estRowBytes is the width of one EST row: profile, fingerprint and plan
// signature string indices, two quantized shares and the seconds.
const estRowBytes = 4 + 4 + 4 + 4 + 8 + 4

func (o *Orchestrator) encodeEstimates() []byte {
	var e SnapEncoder
	e.Bool(!o.opts.DisableScoreCache)
	if o.opts.DisableScoreCache {
		return e.buf
	}
	e.I64(int64(len(o.estimates)))
	for c := range o.estimates {
		entries := o.estimates[c].Export()
		var strs []string
		idx := make(map[string]uint32)
		for _, en := range entries {
			for _, s := range [...]string{en.Profile, en.Fingerprint, en.PlanSig} {
				if _, ok := idx[s]; !ok {
					idx[s] = uint32(len(strs))
					strs = append(strs, s)
				}
			}
		}
		e.I64(int64(len(strs)))
		for _, s := range strs {
			e.Str(s)
		}
		e.I64(int64(len(entries)))
		for _, en := range entries {
			e.U32(idx[en.Profile])
			e.U32(idx[en.Fingerprint])
			e.U32(uint32(en.Alloc[0]))
			e.U32(uint32(en.Alloc[1]))
			e.F64(en.Seconds)
			e.U32(idx[en.PlanSig])
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
	listed            []bool // server is a member of some cell
	cells             [][]int
	assignment        map[string]int
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
	// leave partitions partitionCells would not produce — then
	// install the staged state. Nothing below can fail except manager
	// import, which happens before the orchestrator is returned — the
	// partially-built value is simply dropped on error, never observable.
	// Restored cells have no stored outcome, so they are dirty and
	// recompute once, bit-identically (replay ≡ recompute).
	o := newOrchestrator(opts, st.cells)
	o.assignment = st.assignment
	o.period = st.period
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
	ns := d.Count(4)
	if d.err != nil {
		return nil
	}
	if ns == 0 {
		d.Fail("no servers")
		return nil
	}
	st.profiles = make([]string, ns)
	for s := 0; s < ns; s++ {
		st.profiles[s] = d.Str()
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
	st.listed = make([]bool, ns)
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
			if st.listed[s] {
				d.Fail("server %d appears in two cells", s)
				return nil
			}
			st.listed[s] = true
			members[l] = s
		}
		st.cells[c] = members
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
		if !st.listed[s] {
			d.Fail("tenant %q assigned to removed server %d", id, s)
			return nil
		}
		st.assignment[id] = s
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
	s := &dynmgmt.StateExport{}
	nPrev := d.Count(8)
	for i := 0; i < nPrev && d.err == nil; i++ {
		s.Prev = append(s.Prev, d.Alloc())
	}
	// A tenant is at least its ID's length prefix, the model flag, two
	// floats and two flags: a tenant without a model, as the §6.2 guard
	// leaves one until its next period rebuilds it.
	nTen := d.Count(4 + 1 + 8 + 8 + 1 + 1)
	for i := 0; i < nTen && d.err == nil; i++ {
		t := dynmgmt.TenantExport{ID: d.Str()}
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
	nc := d.Count(16)
	if d.err != nil {
		return nil
	}
	if nc != len(st.cells) {
		d.Fail("estimate entries for %d cells, topology has %d", nc, len(st.cells))
		return nil
	}
	st.est = make([][]score.EstimateEntry, nc)
	for c := 0; c < nc; c++ {
		strs := make([]string, d.Count(4))
		for i := range strs {
			strs[i] = d.Str()
		}
		rows := make([]score.EstimateEntry, d.Count(estRowBytes))
		str := func(r int, what string) string {
			i := d.U32()
			if d.err == nil && int64(i) >= int64(len(strs)) {
				d.Fail("cell %d row %d: %s string %d is past the cell's %d-string table", c, r, what, i, len(strs))
			}
			if d.err != nil {
				return ""
			}
			return strs[i]
		}
		for r := 0; r < len(rows) && d.err == nil; r++ {
			en := &rows[r]
			en.Profile = str(r, "profile")
			en.Fingerprint = str(r, "fingerprint")
			en.Alloc = core.AllocKey{int32(d.U32()), int32(d.U32())}
			en.Seconds = d.F64()
			en.PlanSig = str(r, "plan signature")
			if d.err == nil && !estShares(en.Alloc) {
				d.Fail("cell %d row %d: shares %v are not a quantized allocation", c, r, en.Alloc)
			}
		}
		if d.err != nil {
			return nil
		}
		st.est[c] = rows
	}
	return nil
}

// estShares reports whether k is what core.KeyOf yields for a fleet
// allocation: one or two shares in [0, 1], quantized to 0…1e6, with −1
// in the unused slot of a one-resource allocation.
func estShares(k core.AllocKey) bool {
	in := func(q int32) bool { return q >= 0 && q <= 1e6 }
	return in(k[0]) && (in(k[1]) || k[1] == -1)
}

func (st *snapState) parseUser(d *SnapDecoder) error {
	if len(d.buf) > 0 {
		st.user = append([]byte(nil), d.buf...)
	}
	d.off = len(d.buf)
	return nil
}
