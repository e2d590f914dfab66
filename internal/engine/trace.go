package engine

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/obs"
)

// Trace derives a span tree from the instance's audit trail — the §3.3
// monitoring record viewed the way a distributed tracer would draw it.
// The instance is the root span; every activity execution (one
// exit-condition iteration) is a child span opened by its EvStarted event
// and closed by EvFinished or EvFailed. Block and subprocess member
// executions nest under their owner's span, because member paths extend
// the owner's path ("Forward#0/book_flight" nests under Forward's
// iteration 0). Events that are not executions — ready, looped,
// connector evaluations, work item flow, dead path eliminations — attach
// as point events to the nearest enclosing span.
//
// Timestamps are the engine clock (seconds by default), so production
// traces are coarse but tests with logical clocks get exact durations.
// Call Trace from the navigator goroutine or after the instance settled;
// like Trail, it is not synchronized with active navigation.
func (inst *Instance) Trace() *obs.Trace {
	trail := inst.Trail()
	status, cause := inst.StatusInfo()
	root := &obs.Span{Name: inst.tpl.proc.Name, Kind: "instance", Status: "open"}
	if len(trail) > 0 {
		root.Start = trail[0].At
		root.End = trail[len(trail)-1].At
	}
	switch status {
	case "finished":
		root.Status = "ok"
	case "failed":
		root.Status = "failed"
		root.Attrs = map[string]string{"cause": cause}
	}

	// Open and closed spans are both kept by execution key (path#iter):
	// late events for a closed execution (EvLooped follows EvFinished)
	// still find their span.
	spans := make(map[string]*obs.Span)
	key := func(path string, iter int) string { return fmt.Sprintf("%s#%d", path, iter) }
	// parentOf returns the span to attach a child or event for the given
	// path to: the owning activity execution's span, or the root. The
	// scope path of a nested execution is exactly the owner's key —
	// joinPaths builds "ownerPath#iter/member".
	parentOf := func(path string) *obs.Span {
		if i := strings.LastIndexByte(path, '/'); i >= 0 {
			if p := spans[path[:i]]; p != nil {
				return p
			}
		}
		return root
	}
	for _, ev := range trail {
		switch ev.Kind {
		case EvCreated, EvDone, EvCanceled:
			// Instance-level lifecycle: already reflected in the root span.
			if ev.Kind == EvCanceled {
				root.AddEvent("canceled", ev.At, "")
			}
		case EvStarted:
			sp := &obs.Span{
				Name: ev.Path[strings.LastIndexByte(ev.Path, '/')+1:],
				Kind: "activity", Path: ev.Path, Iter: ev.Iter,
				Start: ev.At, End: ev.At, Status: "open",
			}
			if ev.Program != "" {
				sp.Attrs = map[string]string{"program": ev.Program}
			}
			spans[key(ev.Path, ev.Iter)] = sp
			parent := parentOf(ev.Path)
			parent.Children = append(parent.Children, sp)
		case EvFinished:
			if sp := spans[key(ev.Path, ev.Iter)]; sp != nil {
				sp.End = ev.At
				sp.Status = "ok"
				if sp.Attrs == nil {
					sp.Attrs = make(map[string]string, 1)
				}
				sp.Attrs["rc"] = strconv.FormatInt(ev.RC, 10)
			}
		case EvFailed:
			if sp := spans[key(ev.Path, ev.Iter)]; sp != nil {
				sp.End = ev.At
				sp.Status = "failed"
				if sp.Attrs == nil {
					sp.Attrs = make(map[string]string, 1)
				}
				sp.Attrs["cause"] = ev.Cause
			} else {
				root.AddEvent("failed", ev.At, ev.Path+": "+ev.Cause)
			}
		case EvConnector:
			detail := fmt.Sprintf("%s -> %s = %v", ev.From, ev.To, ev.Value)
			parentOf(ev.From).AddEvent("connector", ev.At, detail)
		default:
			// Point events on the execution's own span when it exists
			// (looped, terminated), otherwise on the enclosing span (ready,
			// dead-path, work-posted — the execution never started).
			target := spans[key(ev.Path, ev.Iter)]
			if target == nil {
				target = parentOf(ev.Path)
			}
			detail := ""
			if target == root {
				detail = ev.Path
			}
			target.AddEvent(ev.Kind.String(), ev.At, detail)
		}
	}
	return &obs.Trace{TraceID: inst.id, Process: inst.tpl.proc.Name, Root: root}
}
