package engine_test

import (
	"reflect"
	"testing"

	"repro/internal/engine"
	"repro/internal/org"
	"repro/internal/rm"
	"repro/internal/wal"
)

// finishedReads is everything monitoring reads off an instance.
type finishedReads struct {
	trail      []engine.Event
	runs       []engine.ProgramRun
	trace      string
	snapshot   *engine.InstanceSnapshot
	activities []engine.ActivityInfo
	output     string
}

func readFinished(inst *engine.Instance) finishedReads {
	return finishedReads{
		trail: inst.Trail(), runs: inst.ProgramRuns(), trace: inst.Trace().Render(),
		snapshot: inst.Snapshot(), activities: inst.Activities(), output: inst.Output().String(),
	}
}

// TestReadsAfterDone: RecDone releases an instance's containers, queue and
// replay index, and every monitoring read answers after Start returns what
// it answered at EvDone, before the release. The clock repeats and steps
// backwards, so the trail's stamp runs must give back every stamp the
// trail observer was handed. The interventions refuse a finished instance
// and leave it as it was.
func TestReadsAfterDone(t *testing.T) {
	for _, tc := range goldenCases {
		t.Run(tc.name, func(t *testing.T) {
			var reads int64
			clock := func() int64 { reads++; return []int64{7, 7, 3, 9, 9, 1}[reads%6] }
			var observed []engine.Event
			var atDone *finishedReads
			inj := rm.NewInjector()
			tc.script(inj)
			e := atmEngine(t, inj, engine.WithClock(clock), engine.WithOrganization(org.NewDirectory()),
				engine.WithTrailObserver(func(inst *engine.Instance, ev engine.Event) {
					observed = append(observed, ev)
					if ev.Kind == engine.EvDone {
						r := readFinished(inst)
						atDone = &r
					}
				}))
			inst, err := e.CreateInstanceID(tc.process, "inst-1", nil, &wal.MemLog{})
			if err != nil {
				t.Fatal(err)
			}
			if err := inst.Start(); err != nil {
				t.Fatal(err)
			}
			if atDone == nil || !engine.Released(inst) {
				t.Fatalf("instance finished: %v, navigation state released: %v", atDone != nil, engine.Released(inst))
			}
			after := readFinished(inst)
			if !reflect.DeepEqual(after, *atDone) {
				t.Errorf("reads after Start differ from the reads at EvDone:\n got %+v\nwant %+v", after, *atDone)
			}
			if !reflect.DeepEqual(after.trail, observed) {
				t.Errorf("Trail() differs from the %d events the observer was handed:\n got %+v\nwant %+v", len(observed), after.trail, observed)
			}

			for _, a := range after.activities {
				if err := inst.ForceFinish(a.Path, 0); err == nil {
					t.Errorf("ForceFinish(%q) on a finished instance succeeded", a.Path)
				}
			}
			if err := inst.SelectWork("nobody", 1); err == nil {
				t.Error("SelectWork on a finished instance succeeded")
			}
			if err := inst.Cancel(); err == nil {
				t.Error("Cancel on a finished instance succeeded")
			}
			if again := readFinished(inst); !reflect.DeepEqual(again, after) {
				t.Errorf("interventions on a finished instance changed it:\n got %+v\nwant %+v", again, after)
			}
		})
	}
}
