package flexible

import (
	"fmt"
	"slices"

	"repro/internal/atm"
)

// Constraints is the well-formedness of a flexible transaction, one row per
// rule in check order: the declared subtransactions, the execution paths
// over them, and last ZNBB94 well-formedness on the path trie. BuildTrie
// runs it; an error names the row it broke (atm.Violation).
var Constraints = atm.Table[*Trie]{
	{Name: "flexible.named", Section: "§4.2", Check: func(s *Trie) error {
		if s.Name == "" {
			return fmt.Errorf("flexible: empty transaction name")
		}
		return nil
	}},
	{Name: "flexible.has-subs", Section: "§4.2", Check: func(s *Trie) error {
		if len(s.Subs) == 0 {
			return fmt.Errorf("flexible %s: no subtransactions", s.Name)
		}
		return nil
	}},
	{Name: "flexible.has-paths", Section: "§4.2", Check: func(s *Trie) error {
		if len(s.Paths) == 0 {
			return fmt.Errorf("flexible %s: no execution paths", s.Name)
		}
		return nil
	}},
	{Name: "flexible.sub-named", Section: "§4.2", Check: func(s *Trie) error {
		for _, sub := range s.Subs {
			if sub.Name == "" {
				return fmt.Errorf("flexible %s: subtransaction with empty name", s.Name)
			}
		}
		return nil
	}},
	{Name: "flexible.unique-names", Section: "§4.2", Check: func(s *Trie) error {
		names := make(map[string]bool, 2*len(s.Subs))
		for _, sub := range s.Subs {
			for _, n := range []string{sub.Name, sub.Compensation} {
				if n != "" && names[n] {
					return fmt.Errorf("flexible %s: duplicate name %q", s.Name, n)
				}
				names[n] = true
			}
		}
		return nil
	}},
	{Name: "flexible.compensation-iff-compensatable", Section: "§4.2", Check: func(s *Trie) error {
		for _, sub := range s.Subs {
			if sub.Compensatable != (sub.Compensation != "") {
				return fmt.Errorf("flexible %s: subtransaction %q must declare a compensation iff compensatable", s.Name, sub.Name)
			}
		}
		return nil
	}},
	{Name: "flexible.paths-nonempty", Section: "§4.2", Check: func(s *Trie) error {
		for pi, path := range s.Paths {
			if len(path) == 0 {
				return fmt.Errorf("flexible %s: path %d is empty", s.Name, pi+1)
			}
		}
		return nil
	}},
	{Name: "flexible.paths-declared", Section: "§4.2", Check: func(s *Trie) error {
		for pi, path := range s.Paths {
			for _, n := range path {
				if s.Sub(n) == nil {
					return fmt.Errorf("flexible %s: path %d uses undeclared subtransaction %q", s.Name, pi+1, n)
				}
			}
		}
		return nil
	}},
	{Name: "flexible.path-no-repeat", Section: "§4.2", Check: func(s *Trie) error {
		for pi, path := range s.Paths {
			for i, n := range path {
				if slices.Contains(path[:i], n) {
					return fmt.Errorf("flexible %s: path %d repeats subtransaction %q", s.Name, pi+1, n)
				}
			}
		}
		return nil
	}},
	{Name: "flexible.subs-used", Section: "§4.2", Check: func(s *Trie) error {
		for _, sub := range s.Subs {
			if !slices.ContainsFunc(s.Paths, func(p []string) bool { return slices.Contains(p, sub.Name) }) {
				return fmt.Errorf("flexible %s: subtransaction %q appears in no path", s.Name, sub.Name)
			}
		}
		return nil
	}},
	// A path that is a proper prefix of another would make "success"
	// ambiguous at a divergence.
	{Name: "flexible.no-prefix-path", Section: "§4.2", Check: func(s *Trie) error {
		for i, a := range s.Paths {
			for j, b := range s.Paths {
				if i != j && len(a) <= len(b) && slices.Equal(a, b[:len(a)]) {
					return fmt.Errorf("flexible %s: path %d is a prefix of path %d", s.Name, i+1, j+1)
				}
			}
		}
		return nil
	}},
	// ZNBB94 atomicity: for every node whose subtransaction can abort (it is
	// not retriable), every committed ancestor that its failure would force
	// to be undone must be compensatable. Because Fallback's compensation
	// list reaches the root exactly when no alternative remains, this single
	// check guarantees both that a clean global abort is possible whenever
	// it can happen, and that once a pivot commits every reachable failure
	// still leads to some alternative — so the transaction eventually
	// commits.
	{Name: "flexible.well-formed", Section: "§4.2 (ZNBB94)", Check: func(s *Trie) error {
		for _, n := range s.nodes[1:] { // every node but the root
			if s.Sub(n.Sub).Retriable {
				continue // cannot abort for good
			}
			_, comp := Fallback(n)
			for _, c := range comp {
				if cs := s.Sub(c.Sub); !cs.Compensatable {
					return fmt.Errorf(
						"flexible %s: not well-formed: abort of %q requires compensating %q (%s), which is not compensatable",
						s.Name, n.Sub, c.Sub, cs.Kind())
				}
			}
		}
		return nil
	}},
}
