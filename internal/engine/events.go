package engine

import "fmt"

// EventKind classifies audit-trail events.
type EventKind uint8

// The audit trail event kinds.
const (
	EvCreated EventKind = iota + 1
	EvReady
	EvStarted
	EvFinished
	EvLooped // exit condition false, activity rescheduled
	EvTerminated
	EvDeadPath // terminated by dead path elimination
	EvConnector
	EvWorkPosted
	EvWorkSelected
	EvForced   // a user forced the activity to finish without running it
	EvCanceled // the instance was canceled by a user
	EvFailed   // a program activity failed fatally; Cause records why
	EvDone
)

// String names the kind.
func (k EventKind) String() string {
	switch k {
	case EvCreated:
		return "created"
	case EvReady:
		return "ready"
	case EvStarted:
		return "started"
	case EvFinished:
		return "finished"
	case EvLooped:
		return "looped"
	case EvTerminated:
		return "terminated"
	case EvDeadPath:
		return "dead-path"
	case EvConnector:
		return "connector"
	case EvWorkPosted:
		return "work-posted"
	case EvWorkSelected:
		return "work-selected"
	case EvForced:
		return "forced"
	case EvCanceled:
		return "canceled"
	case EvFailed:
		return "failed"
	case EvDone:
		return "done"
	default:
		return fmt.Sprintf("EventKind(%d)", uint8(k))
	}
}

// Event is one entry of an instance's audit trail — the §3.3 monitoring
// and audit capability. The trail doubles as the observable history the
// experiments check against the paper's appendix traces.
type Event struct {
	Kind    EventKind
	Path    string // activity path ("" for instance-level events)
	Iter    int
	Program string // program name for Started/Finished on program activities
	RC      int64  // return code for Finished
	From    string // connector source (EvConnector)
	To      string // connector target (EvConnector)
	Value   bool   // connector truth value (EvConnector)
	Cause   string // failure cause message (EvFailed)
	// At is the engine clock (seconds) at the start of the navigation step
	// that recorded the event, or when its program returned (see
	// WithClock); with the default clock it is wall time, tests inject
	// logical clocks. The accounting package derives activity and
	// instance durations from it.
	At int64
}

// String renders the event compactly, e.g. "finished Forward#0/T2 rc=0".
func (ev Event) String() string {
	switch ev.Kind {
	case EvConnector:
		return fmt.Sprintf("connector %s -> %s = %v", ev.From, ev.To, ev.Value)
	case EvFinished:
		return fmt.Sprintf("finished %s#%d rc=%d", ev.Path, ev.Iter, ev.RC)
	case EvFailed:
		return fmt.Sprintf("failed %s#%d: %s", ev.Path, ev.Iter, ev.Cause)
	case EvCreated, EvDone:
		return ev.Kind.String()
	default:
		if ev.Iter > 0 {
			return fmt.Sprintf("%s %s#%d", ev.Kind, ev.Path, ev.Iter)
		}
		return fmt.Sprintf("%s %s", ev.Kind, ev.Path)
	}
}
