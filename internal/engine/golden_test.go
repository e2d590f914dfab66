package engine_test

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/fmtm"
	"repro/internal/obs"
	"repro/internal/rm"
	"repro/internal/wal"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden files under testdata/golden")

// goldenCases fix the abort decisions of each run. The golden files were
// captured on the commit before templates were compiled into plans, so
// they pin the refactored navigator to the original one byte for byte —
// except the clock stamps, re-recorded once when trail events began to
// share one clock read per navigation step (DESIGN.md §4.1).
var goldenCases = []struct {
	name    string
	process string
	script  func(*rm.Injector)
}{
	{"travel-commit", "travel", func(*rm.Injector) {}},
	{"travel-compensated", "travel", func(inj *rm.Injector) { inj.AbortAlways("book_car") }},
	{"travel-retried-compensation", "travel", func(inj *rm.Injector) {
		inj.AbortAlways("book_car")
		inj.AbortN("cancel_hotel", 2)
		inj.AbortN("cancel_flight", 1)
	}},
	{"fig3-commit", "fig3", func(*rm.Injector) {}},
	{"fig3-alternative", "fig3", func(inj *rm.Injector) { inj.AbortAlways("F8") }},
	{"fig3-alternative-retried", "fig3", func(inj *rm.Injector) {
		inj.AbortAlways("F8")
		inj.AbortN("FC6", 1)
		inj.AbortN("F7", 2)
	}},
	{"fig3-last-path", "fig3", func(inj *rm.Injector) { inj.AbortAlways("F4") }},
	{"fig3-compensated", "fig3", func(inj *rm.Injector) { inj.AbortAlways("F2") }},
}

// atmEngine returns an engine with its own metrics registry on which FMTM
// has compiled and installed testdata/atm.spec — the travel saga of §4.1
// and the Figure 3 flexible transaction of §4.2; inj decides every
// subtransaction and compensation.
func atmEngine(t testing.TB, inj *rm.Injector, opts ...engine.Option) *engine.Engine {
	t.Helper()
	spec, err := os.ReadFile("testdata/atm.spec")
	res, perr := fmtm.Pipeline(string(spec))
	if err := errors.Join(err, perr); err != nil {
		t.Fatal(err)
	}
	e := engine.New(append([]engine.Option{engine.WithMetrics(obs.NewRegistry())}, opts...)...)
	if err := fmtm.RegisterRuntime(e); err != nil {
		t.Fatal(err)
	}
	sagaSpec, flexSpec := res.Specs.Sagas[0], res.Specs.Flexible[0]
	if err := fmtm.RegisterSaga(e, sagaSpec, fmtm.PureSagaBinding(sagaSpec), inj, &rm.Recorder{}); err != nil {
		t.Fatal(err)
	}
	if err := fmtm.RegisterFlexible(e, flexSpec, fmtm.PureFlexibleBinding(flexSpec), inj, &rm.Recorder{}); err != nil {
		t.Fatal(err)
	}
	if err := fmtm.Install(e, res.File); err != nil {
		t.Fatal(err)
	}
	return e
}

// rawEvent prints every field of an Event; Event's own String omits some.
type rawEvent engine.Event

// goldenRun is everything one run leaves behind.
type goldenRun struct {
	trail    []engine.Event
	observed []engine.Event
	bus      []obs.Event
	rendered string
}

// runGolden navigates one case on a fresh engine with a logical clock.
// With listen set a trail observer and a bus tap are attached, so every
// event is handed out as it is recorded; without, nothing listens and the
// trail is only read back after the run.
func runGolden(t *testing.T, process string, script func(*rm.Injector), listen bool) goldenRun {
	t.Helper()
	var run goldenRun
	var tick int64
	bus := obs.NewBus()
	opts := []engine.Option{
		engine.WithBus(bus),
		engine.WithClock(func() int64 { tick++; return tick }),
	}
	if listen {
		defer bus.Attach(func(ev obs.Event) {
			ev.At, ev.DurNs = 0, 0 // monotonic stamps differ from run to run
			run.bus = append(run.bus, ev)
		})()
		opts = append(opts, engine.WithTrailObserver(func(_ *engine.Instance, ev engine.Event) {
			run.observed = append(run.observed, ev)
		}))
	}
	inj := rm.NewInjector()
	script(inj)
	e := atmEngine(t, inj, opts...)
	log := &wal.MemLog{}
	inst, err := e.CreateInstanceID(process, "inst-1", nil, log)
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.Start(); err != nil {
		t.Fatal(err)
	}
	if !inst.Finished() {
		t.Fatalf("%s did not finish", process)
	}
	run.trail = inst.Trail()

	var sb strings.Builder
	sb.WriteString("== trail\n")
	for i, ev := range run.trail {
		fmt.Fprintf(&sb, "%3d %+v\n", i, rawEvent(ev))
	}
	sb.WriteString("== program runs\n")
	for _, r := range inst.ProgramRuns() {
		fmt.Fprintf(&sb, "%+v\n", r)
	}
	sb.WriteString("== trace\n")
	sb.WriteString(inst.Trace().Render())
	sb.WriteString("== wal\n")
	for _, rec := range log.Records() {
		line, err := wal.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		sb.Write(line)
		sb.WriteByte('\n')
	}
	fmt.Fprintf(&sb, "== output\n%s\n", inst.Output())
	run.rendered = sb.String()
	return run
}

// busProjection is the obs.Event sequence the engine publishes for a
// trail: instance.created from CreateInstance, then the externally
// interesting trail events under their bus names.
func busProjection(id, process string, trail []engine.Event) []obs.Event {
	out := []obs.Event{{Kind: obs.EvInstanceCreated, Instance: id, Program: process}}
	for _, ev := range trail {
		pe := obs.Event{Instance: id, Path: ev.Path, Iter: ev.Iter}
		switch ev.Kind {
		case engine.EvCreated:
			pe.Kind = obs.EvInstanceStarted
		case engine.EvStarted:
			pe.Kind, pe.Program = obs.EvActivityDispatch, ev.Program
		case engine.EvFinished:
			pe.Kind, pe.Program, pe.RC = obs.EvActivityFinished, ev.Program, ev.RC
		case engine.EvLooped:
			pe.Kind = obs.EvActivityLoop
		case engine.EvDeadPath:
			pe.Kind = obs.EvActivityDeadPath
		case engine.EvDone:
			pe.Kind = obs.EvInstanceFinished
		default:
			continue
		}
		out = append(out, pe)
		if ev.Kind == engine.EvStarted && ev.Program == "" && ev.Path[strings.LastIndexByte(ev.Path, '/')+1:] == "Compensation" {
			out = append(out, obs.Event{Kind: obs.EvCompensation, Instance: id, Path: ev.Path, Iter: ev.Iter})
		}
	}
	return out
}

// TestGoldenTrailEquivalence asserts that Trail, ProgramRuns, the rendered
// Trace, the WAL record sequence and the process output of the travel saga
// and the Figure 3 flexible transaction equal the golden files on the
// commit, compensated, alternative and retried paths — whether or not
// anything listens while the instance runs — and that the trail observer
// and the bus saw the trail that Trail() materialises.
func TestGoldenTrailEquivalence(t *testing.T) {
	for _, tc := range goldenCases {
		t.Run(tc.name, func(t *testing.T) {
			heard := runGolden(t, tc.process, tc.script, true)
			quiet := runGolden(t, tc.process, tc.script, false)

			path := filepath.Join("testdata", "golden", tc.name+".golden")
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(heard.rendered), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if heard.rendered != string(want) {
				t.Errorf("run with listeners differs from %s:\n%s", path, firstDiff(heard.rendered, string(want)))
			}
			if quiet.rendered != string(want) {
				t.Errorf("run without listeners differs from %s:\n%s", path, firstDiff(quiet.rendered, string(want)))
			}
			if !reflect.DeepEqual(heard.observed, heard.trail) {
				t.Errorf("trail observer saw %d events that differ from the %d of Trail()", len(heard.observed), len(heard.trail))
			}
			if wantBus := busProjection("inst-1", tc.process, heard.trail); !reflect.DeepEqual(heard.bus, wantBus) {
				t.Errorf("bus events differ from the trail's projection:\n got %+v\nwant %+v", heard.bus, wantBus)
			}
		})
	}
}

func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			return fmt.Sprintf("line %d:\n got %s\nwant %s", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("got %d lines, want %d", len(g), len(w))
}
