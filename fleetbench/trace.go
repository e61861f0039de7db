package main

// The benchmark's own tracing: one obs.Span per scripted operation (its
// fleet and operation number as attributes) with a child span around each
// public call made in it, each span's start offset from the run's start
// as its start_ns attribute, kept in memory and written out as NDJSON
// when the run ends, beside the program's own period span trees
// (FleetOptions.TraceSink). Every method is nil-safe, so the untraced run
// calls the same code with a nil tracer and records nothing.

import (
	"bufio"
	"encoding/json"
	"os"
	"time"

	"repro/internal/obs"
)

// periodTrace pairs one Fleet.Period call as the caller timed it with
// the program's span tree for the same period.
type periodTrace struct {
	fleet int
	op    int
	wall  time.Duration
	tree  *obs.Span
	timed bool
}

// tracer collects the traced run's spans and the program's metrics.
type tracer struct {
	origin time.Time
	reg    *obs.Registry
	ops    []*obs.Span // one span per operation, in order
	cur    *obs.Span   // the operation in progress, nil between operations
	// fleet is the fleet being driven, op the current operation number
	// (0 = set-up and warm-up) and timed whether its periods are timed.
	fleet, op int
	timed     bool
	// pending is the program's span tree delivered by TraceSink during
	// the Period call in progress.
	pending *obs.Span
	periods []periodTrace
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), reg: obs.NewRegistry()}
}

// start opens a span around one public call, under the operation in
// progress.
func (t *tracer) start(name string) *obs.Span {
	if t == nil {
		return nil
	}
	s := t.cur.Child(name)
	s.SetInt("start_ns", time.Since(t.origin).Nanoseconds())
	return s
}

// beginFleet marks the start of fleet j's set-up.
func (t *tracer) beginFleet(j int) {
	if t != nil {
		t.fleet = j
	}
}

// beginOp opens the span of one scripted operation; public calls made
// until endOp are its children.
func (t *tracer) beginOp(name string, op int, timed bool) {
	if t == nil {
		return
	}
	t.op, t.timed = op, timed
	t.cur = obs.StartSpan(name)
	t.cur.SetInt("start_ns", time.Since(t.origin).Nanoseconds())
	t.cur.SetInt("fleet", int64(t.fleet))
	t.cur.SetInt("op", int64(op))
	t.ops = append(t.ops, t.cur)
}

// endOp closes the operation in progress.
func (t *tracer) endOp() {
	if t == nil {
		return
	}
	t.cur.End()
	t.cur = nil
}

// untimed marks the rest of the current operation as untimed work (the
// restart workload's reference period).
func (t *tracer) untimed() {
	if t != nil {
		t.timed = false
	}
}

// sink is the FleetOptions.TraceSink: it receives the program's span
// tree at the end of every successful period.
func (t *tracer) sink(s *obs.Span) { t.pending = s }

// period records one Period call's wall time with the program's tree.
func (t *tracer) period(wall time.Duration) {
	if t == nil {
		return
	}
	t.periods = append(t.periods, periodTrace{fleet: t.fleet, op: t.op, wall: wall, tree: t.pending, timed: t.timed})
	t.pending = nil
}

// write saves the operation spans, then the program's period trees
// wrapped as {"fleet", "op", "period"}, one JSON object a line.
func (t *tracer) write(path string) error {
	if t == nil || path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, s := range t.ops {
		if err == nil {
			err = s.WriteJSON(w)
		}
	}
	enc := json.NewEncoder(w)
	for _, p := range t.periods {
		if err == nil && p.tree != nil {
			err = enc.Encode(struct {
				Fleet  int       `json:"fleet"`
				Op     int       `json:"op"`
				Period *obs.Span `json:"period"`
			}{p.fleet, p.op, p.tree})
		}
	}
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
