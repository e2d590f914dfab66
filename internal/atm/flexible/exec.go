package flexible

import (
	"fmt"

	"repro/internal/rm"
)

// Binding maps every subtransaction and compensation name of a spec to its
// executable unit of work.
type Binding map[string]rm.Subtransaction

// Bind checks that every subtransaction and compensation has a binding.
func (s *Spec) Bind(b Binding) error {
	for _, sub := range s.Subs {
		if _, ok := b[sub.Name]; !ok {
			return fmt.Errorf("flexible %s: no binding for %q", s.Name, sub.Name)
		}
		if sub.Compensation != "" {
			if _, ok := b[sub.Compensation]; !ok {
				return fmt.Errorf("flexible %s: no binding for compensation %q", s.Name, sub.Compensation)
			}
		}
	}
	return nil
}

// Result reports the outcome of a flexible transaction execution.
type Result struct {
	// Committed is true when some execution path completed.
	Committed bool
	// Path is the committed path (subtransaction names in order); nil when
	// the transaction aborted.
	Path []string
	// Switches counts path switches (fallbacks taken).
	Switches int
}

// Executor runs flexible transactions natively, mirroring the appendix
// semantics: the most preferred continuation is attempted first; a
// retriable subtransaction is re-executed until it commits; an abort of a
// non-retriable subtransaction compensates back to the divergence point of
// the next alternative and continues there; when no alternative remains,
// everything committed is compensated and the transaction aborts.
type Executor struct {
	Decider rm.Decider
	// MaxRetries bounds retriable and compensation retry loops (default
	// 1000) to surface scripting mistakes.
	MaxRetries int
}

func (e *Executor) maxRetries() int {
	if e.MaxRetries <= 0 {
		return 1000
	}
	return e.MaxRetries
}

// Prepared is a flexible transaction whose path trie is built, checked
// and bound once, ready to run any number of times: the native analogue of
// registering a process with the engine.
type Prepared struct {
	trie  *Trie
	nodes []boundNode // by Node.ID
}

// boundNode is what running a trie node needs of its subtransaction.
type boundNode struct {
	sub, comp rm.Subtransaction
	retriable bool
}

// Prepare builds the spec's path trie (BuildTrie, which checks the
// constraints) and binds every subtransaction and compensation.
func Prepare(spec *Spec, b Binding) (*Prepared, error) {
	trie, err := BuildTrie(spec)
	if err != nil {
		return nil, err
	}
	if err := spec.Bind(b); err != nil {
		return nil, err
	}
	p := &Prepared{trie: trie, nodes: make([]boundNode, len(trie.Nodes()))}
	for _, n := range trie.Nodes() {
		if n.Parent == nil {
			continue // the root enters by no subtransaction
		}
		sub := spec.Sub(n.Sub)
		p.nodes[n.ID] = boundNode{sub: b[n.Sub], comp: b[sub.Compensation], retriable: sub.Retriable}
	}
	return p, nil
}

// Execute prepares the flexible transaction against the binding and runs
// it (Run).
func (e *Executor) Execute(spec *Spec, b Binding, rec *rm.Recorder) (Result, error) {
	p, err := Prepare(spec, b)
	if err != nil {
		return Result{}, err
	}
	return e.Run(p, rec)
}

// Run runs a prepared flexible transaction, appending the observable
// history to rec.
func (e *Executor) Run(p *Prepared, rec *rm.Recorder) (Result, error) {
	res := Result{}
	next := p.trie.Root.Children[0]
	for next != nil {
		n := next
		bn := &p.nodes[n.ID]
		committed, err := e.execSub(bn.sub, bn.retriable, rec)
		if err != nil {
			return Result{}, err
		}
		if committed {
			if len(n.Children) == 0 {
				res.Committed = true
				res.Path = pathTo(n)
				return res, nil
			}
			next = n.Children[0]
			continue
		}
		// Abort of a non-retriable subtransaction: compensate back to the
		// next alternative's divergence point and continue there (or abort
		// globally).
		alt, toComp := Fallback(n)
		for _, c := range toComp {
			if _, err := e.execSub(p.nodes[c.ID].comp, true, rec); err != nil {
				return Result{}, err
			}
		}
		if alt == nil {
			return Result{Committed: false, Switches: res.Switches}, nil
		}
		res.Switches++
		next = alt
	}
	// Unreachable: the loop always exits through a return above.
	return res, nil
}

// execSub runs sub once, or until it commits when it is retriable (as
// every compensation is).
func (e *Executor) execSub(sub rm.Subtransaction, retriable bool, rec *rm.Recorder) (bool, error) {
	for attempt := 0; ; attempt++ {
		committed, err := rm.Exec(sub, e.Decider, rec)
		if err != nil {
			return false, err
		}
		if committed {
			return true, nil
		}
		if !retriable {
			return false, nil
		}
		if attempt >= e.maxRetries() {
			return false, fmt.Errorf("flexible: %q did not commit after %d attempts", sub.Name, attempt+1)
		}
	}
}
