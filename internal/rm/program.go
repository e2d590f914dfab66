package rm

import (
	"repro/internal/engine"
)

// Program adapts a subtransaction to an engine program: the workflow
// activity's return code carries the transactional outcome, RC = 0 for
// commit and RC = 1 for abort — the convention the generated workflow
// processes of §4 condition on.
func Program(sub Subtransaction, dec Decider, rec *Recorder) engine.Program {
	return engine.ProgramFunc(func(inv *engine.Invocation) error {
		committed, err := Exec(sub, dec, rec)
		if err != nil {
			return err
		}
		if committed {
			inv.Out.SetRC(0)
		} else {
			inv.Out.SetRC(1)
		}
		return nil
	})
}
