package rm

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/txdb"
)

// Outcome is the scripted result of one subtransaction attempt.
type Outcome uint8

// The outcomes.
const (
	Commit Outcome = iota
	Abort
)

// String names the outcome.
func (o Outcome) String() string {
	if o == Abort {
		return "abort"
	}
	return "commit"
}

// Decider chooses the outcome of each attempt of a named subtransaction.
// Implementations must be safe for concurrent use.
type Decider interface {
	Decide(name string) Outcome
}

// Injector is a scripted Decider: each name consumes its outcome list left
// to right and then commits forever. The zero value commits everything.
type Injector struct {
	mu       sync.Mutex
	scripts  map[string][]Outcome
	attempts map[string]int
}

// NewInjector returns an empty injector (everything commits).
func NewInjector() *Injector {
	return &Injector{scripts: make(map[string][]Outcome), attempts: make(map[string]int)}
}

// Script sets the outcome sequence for a subtransaction name, replacing any
// previous script.
func (i *Injector) Script(name string, outcomes ...Outcome) {
	i.mu.Lock()
	defer i.mu.Unlock()
	i.scripts[name] = append([]Outcome(nil), outcomes...)
}

// AbortAlways makes every attempt of the name abort — a pivot that fails
// for good.
func (i *Injector) AbortAlways(name string) {
	i.mu.Lock()
	defer i.mu.Unlock()
	i.scripts[name] = nil
	i.attempts[name+"\x00always"] = 1 // marker, see Decide
}

// AbortN makes the first n attempts abort and later ones commit — the
// observable behaviour of a retriable subtransaction.
func (i *Injector) AbortN(name string, n int) {
	outcomes := make([]Outcome, n)
	for j := range outcomes {
		outcomes[j] = Abort
	}
	i.Script(name, outcomes...)
}

// Decide implements Decider.
func (i *Injector) Decide(name string) Outcome {
	i.mu.Lock()
	defer i.mu.Unlock()
	i.attempts[name]++
	if i.attempts[name+"\x00always"] > 0 {
		return Abort
	}
	s := i.scripts[name]
	if len(s) == 0 {
		return Commit
	}
	out := s[0]
	i.scripts[name] = s[1:]
	return out
}

// Attempts reports how many times the name was decided.
func (i *Injector) Attempts(name string) int {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.attempts[name]
}

// EventKind classifies history events.
type EventKind string

// History event kinds.
const (
	EvCommit EventKind = "commit"
	EvAbort  EventKind = "abort"
)

// Event is one entry of the observable execution history: subtransaction
// Name finished with Kind.
type Event struct {
	Name string
	Kind EventKind
}

// String renders "name:commit".
func (e Event) String() string { return e.Name + ":" + string(e.Kind) }

// Recorder collects the execution history of an advanced transaction — the
// sequence the saga/flexible guarantees quantify over. It is safe for
// concurrent use.
type Recorder struct {
	mu     sync.Mutex
	events []Event
}

// Record appends an event.
func (r *Recorder) Record(name string, kind EventKind) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.events = append(r.events, Event{Name: name, Kind: kind})
}

// Events returns a copy of the history.
func (r *Recorder) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Event(nil), r.events...)
}

// Committed returns the names of subtransactions that committed, in order.
func (r *Recorder) Committed() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []string
	for _, e := range r.events {
		if e.Kind == EvCommit {
			out = append(out, e.Name)
		}
	}
	return out
}

// Reset clears the history.
func (r *Recorder) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.events = nil
}

// Subtransaction is one ACID unit of work against a local database. Work
// runs inside a txdb transaction; the injected outcome then decides whether
// that transaction commits or is aborted at the very end (a failure at
// commit time, the hardest case for the surrounding model). A nil Store
// makes the subtransaction a pure decision point (useful in benchmarks that
// measure coordination cost without storage cost).
type Subtransaction struct {
	Name  string
	Store *txdb.Store
	Work  func(tx *txdb.Tx) error
}

// Exec runs one attempt of the subtransaction: the forward work executes,
// then the decider chooses commit or abort. It reports whether the attempt
// committed; err is reserved for infrastructure failures (including
// unexpected work errors). Deadlock aborts count as aborted attempts, not
// errors — a local database unilaterally aborting is normal behaviour in
// the multidatabase model.
func Exec(sub Subtransaction, dec Decider, rec *Recorder) (bool, error) {
	outcome := Commit
	if dec != nil {
		outcome = dec.Decide(sub.Name)
	}
	committed := false
	if sub.Store == nil {
		committed = outcome == Commit
	} else {
		tx := sub.Store.Begin()
		err := error(nil)
		if sub.Work != nil {
			err = sub.Work(tx)
		}
		switch {
		case err == nil && outcome == Commit:
			if cerr := tx.Commit(); cerr != nil {
				return false, cerr
			}
			committed = true
		case err == nil: // injected abort
			if aerr := tx.Abort(); aerr != nil {
				return false, aerr
			}
		default:
			// Work failed (e.g. deadlock victim): unilateral local abort.
			_ = tx.Abort()
			if !isExpectedAbort(err) {
				return false, fmt.Errorf("rm: subtransaction %s: %w", sub.Name, err)
			}
		}
	}
	if rec != nil {
		kind := EvAbort
		if committed {
			kind = EvCommit
		}
		rec.Record(sub.Name, kind)
	}
	return committed, nil
}

func isExpectedAbort(err error) bool {
	return errors.Is(err, txdb.ErrDeadlock)
}
