package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/engine"
	"repro/internal/wal"
)

// Span names. The tree of a navigating op is
//
//	op -> fleet.submit
//	op -> queue.wait
//	op -> instance.run -> {program.run, wal.append}
//
// (atm-mem has no fleet, so its ops hold instance.run alone) and of a
// restart-read op
//
//	op -> recover.ladder -> {wal.ckpt_load, wal.tail_read, engine.replay}
//	op -> recover.full   -> {wal.ckpt_load, wal.tail_read, engine.replay}
//	op -> query          -> {history.locate, history.replay}
//
// Siblings never overlap, so the self times of an op's spans add up to
// the op.
const (
	spOp = iota
	spSubmit
	spQueueWait
	spInstanceRun
	spProgramRun
	spWalAppend
	spRecoverLadder
	spRecoverFull
	spCkptLoad
	spTailRead
	spReplay
	spQuery
	spLocate
	spHistReplay
	spKinds
)

var spanNames = [spKinds]string{
	"op", "fleet.submit", "queue.wait", "instance.run", "program.run", "wal.append",
	"recover.ladder", "recover.full", "wal.ckpt_load", "wal.tail_read", "engine.replay",
	"query", "history.locate", "history.replay",
}

// span is one interval of one op. parent indexes the op's span list
// (-1 for the root); times are nanoseconds since the round began.
type span struct {
	kind       uint8
	parent     int32
	start, end int64
}

// opTrace collects the spans of one op. A navigating op is touched by
// two goroutines, one after the other: the submitter writes start and
// the submit interval, the worker writes pickup, leaves and end. They
// are read only after the round has drained.
type opTrace struct {
	start, end             int64
	submitStart, submitEnd int64 // 0,0 when the op is not submitted to a fleet
	pickup                 int64 // the worker's first append (the created record); 0 = none
	leaves                 []span
	spans                  []span // restart-read ops record their tree directly
}

// flatten turns a navigating op into its span list. fleet.submit is
// clipped at pickup: when the worker starts before Submit has returned,
// the rest of the call is off the op's path.
func (t *opTrace) flatten() []span {
	if t.spans != nil {
		return t.spans
	}
	pickup := t.pickup
	if pickup == 0 {
		pickup = t.start
	}
	out := make([]span, 0, 4+len(t.leaves))
	out = append(out, span{kind: spOp, parent: -1, start: t.start, end: t.end})
	if t.submitEnd != 0 {
		handoff := min(t.submitEnd, pickup)
		out = append(out,
			span{kind: spSubmit, parent: 0, start: t.submitStart, end: handoff},
			span{kind: spQueueWait, parent: 0, start: handoff, end: pickup})
	}
	run := int32(len(out))
	out = append(out, span{kind: spInstanceRun, parent: 0, start: pickup, end: t.end})
	for _, l := range t.leaves {
		l.parent = run
		out = append(out, l)
	}
	return out
}

// selfTimes returns, per span, its duration minus the part of it that
// its children cover (children clipped to the parent, overlaps counted
// once).
func selfTimes(spans []span) []int64 {
	children := make([][]int32, len(spans))
	for i, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], int32(i))
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].start < spans[kids[b]].start })
		covered, edge := int64(0), s.start
		for _, k := range kids {
			cs, ce := max(spans[k].start, edge), min(spans[k].end, s.end)
			if ce > cs {
				covered += ce - cs
				edge = ce
			}
		}
		self[i] = max(s.end-s.start, 0) - covered
	}
	return self
}

// spanTotals accumulates self time, duration and count per span name
// over the traced rounds.
type spanTotals struct {
	self, dur, count [spKinds]int64
}

// tracer holds the spans of the round being traced and the totals of
// all traced rounds. Only the last round's spans are kept for the file:
// a run makes millions of them.
type tracer struct {
	base      time.Time // the round's zero
	ops       []opTrace
	totals    spanTotals
	queueWait []time.Duration // every traced op's queue.wait
}

// reset starts a round of n ops. Each op's leaves start in their share
// of one array sized for the usual op, so recording a leaf rarely
// allocates.
func (tr *tracer) reset(n int) {
	const usualLeaves = 24
	tr.ops = make([]opTrace, n)
	backing := make([]span, n*usualLeaves)
	for i := range tr.ops {
		tr.ops[i].leaves = backing[i*usualLeaves : i*usualLeaves : (i+1)*usualLeaves]
	}
	tr.base = time.Now()
}

func (tr *tracer) now() int64 { return int64(time.Since(tr.base)) }

// fold adds the round's spans to the totals.
func (tr *tracer) fold() {
	for i := range tr.ops {
		spans := tr.ops[i].flatten()
		self := selfTimes(spans)
		for j, s := range spans {
			tr.totals.self[s.kind] += self[j]
			tr.totals.dur[s.kind] += s.end - s.start
			tr.totals.count[s.kind]++
			if s.kind == spQueueWait {
				tr.queueWait = append(tr.queueWait, time.Duration(s.end-s.start))
			}
		}
	}
}

// opOf maps an engine-assigned instance ID to the op that created it:
// every round has a fresh engine, so op k runs as "inst-<k+1>".
func opOf(instanceID string) int {
	n, err := strconv.Atoi(strings.TrimPrefix(instanceID, "inst-"))
	if err != nil {
		panic("benchmark: instance ID not engine-assigned: " + instanceID)
	}
	return n - 1
}

// program wraps a benchmark program so each invocation is a program.run
// leaf of its op.
func (tr *tracer) program(p engine.ProgramFunc) engine.ProgramFunc {
	return func(inv *engine.Invocation) error {
		t := &tr.ops[opOf(inv.InstanceID)]
		start := tr.now()
		err := p(inv)
		t.leaves = append(t.leaves, span{kind: spProgramRun, start: start, end: tr.now()})
		return err
	}
}

// tracedLog records the time blocked in Append as a wal.append leaf; an
// op's first append marks its pickup by a worker.
type tracedLog struct {
	tr    *tracer
	inner wal.Log
}

func (l tracedLog) Append(rec wal.Record) error {
	t := &l.tr.ops[opOf(rec.Instance)]
	start := l.tr.now()
	if t.pickup == 0 {
		t.pickup = start
	}
	err := l.inner.Append(rec)
	t.leaves = append(t.leaves, span{kind: spWalAppend, start: start, end: l.tr.now()})
	return err
}

// tree records the spans of a restart-read op, which runs on one
// goroutine: open and shut nest.
type tree struct {
	tr    *tracer
	spans []span
	cur   int32
}

func (tr *tracer) tree() *tree {
	return &tree{tr: tr, cur: -1}
}

func (t *tree) open(kind uint8) {
	t.spans = append(t.spans, span{kind: kind, parent: t.cur, start: t.tr.now()})
	t.cur = int32(len(t.spans) - 1)
}

func (t *tree) shut() {
	t.spans[t.cur].end = t.tr.now()
	t.cur = t.spans[t.cur].parent
}

type spanLine struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// writeSpans writes the last traced round as JSONL: one span per line,
// id and parent numbered within the op, times in ns since the round
// began.
func (tr *tracer) writeSpans(path string) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for op := range tr.ops {
		for id, s := range tr.ops[op].flatten() {
			line := spanLine{Name: spanNames[s.kind], Op: op, ID: id, Parent: int(s.parent), Start: s.start, End: s.end}
			if err := enc.Encode(line); err != nil {
				return err
			}
		}
	}
	return w.Flush()
}
