package flexible

import (
	"fmt"
	"slices"

	"repro/internal/rm"
)

// CheckHistory verifies an observed history against the guarantee of a
// flexible transaction (§4.2, semantic atomicity): every compensation undoes
// the most recently committed subtransaction not yet undone (nearest first,
// as Fallback orders them), and what stays committed at the end is either
// nothing (the transaction aborted) or exactly one declared execution path
// (it committed there). Aborted attempts — of retriable subtransactions,
// of compensations, and the failures that switch paths — commit nothing and
// are permitted anywhere. Past checking the spec (BuildTrie), the check
// knows nothing of preference order or of the path trie, so it judges an
// executor independently of Fallback.
func CheckHistory(spec *Spec, events []rm.Event) error {
	if _, err := BuildTrie(spec); err != nil {
		return err
	}
	undoes := make(map[string]string, len(spec.Subs))
	for _, s := range spec.Subs {
		if s.Compensation != "" {
			undoes[s.Compensation] = s.Name
		}
	}
	var live []string // committed and not compensated, in commit order
	for i, ev := range events {
		sub, isComp := undoes[ev.Name]
		switch {
		case spec.Sub(ev.Name) == nil && !isComp:
			return fmt.Errorf("flexible %s: unknown event subject %q", spec.Name, ev.Name)
		case ev.Kind != rm.EvCommit:
		case !isComp:
			if slices.Contains(live, ev.Name) {
				return fmt.Errorf("flexible %s: %s committed twice (event %d)", spec.Name, ev.Name, i)
			}
			live = append(live, ev.Name)
		case len(live) == 0 || live[len(live)-1] != sub:
			return fmt.Errorf("flexible %s: %s compensates %s, which is not the latest live commit %v (event %d)",
				spec.Name, ev.Name, sub, live, i)
		default:
			live = live[:len(live)-1]
		}
	}
	if len(live) == 0 {
		return nil
	}
	for _, p := range spec.Paths {
		if slices.Equal(p, live) {
			return nil
		}
	}
	return fmt.Errorf("flexible %s: history leaves %v committed, which is no declared path", spec.Name, live)
}
