package fdl

import (
	"fmt"

	"repro/internal/atm"
	"repro/internal/model"
)

// Program is a program registration: Figure 5's semantic check requires
// that "a suitable program definition exists" for every program activity.
type Program struct {
	Name        string
	Description string
}

// File is a parsed FDL definition file. All processes in a file share one
// structure-type registry.
type File struct {
	Types     *model.Types
	Programs  []*Program
	Processes []*model.Process
}

// Program returns the registered program with the given name, or nil.
func (f *File) Program(name string) *Program {
	for _, p := range f.Programs {
		if p.Name == name {
			return p
		}
	}
	return nil
}

// Process returns the process with the given name, or nil.
func (f *File) Process(name string) *model.Process {
	for _, p := range f.Processes {
		if p.Name == name {
			return p
		}
	}
	return nil
}

// Check performs the semantic verification of the import stage of the
// Figure 5 pipeline: it runs Constraints, and an error names the row it
// broke (atm.Violation).
func (f *File) Check() error { return Constraints.Check(f) }

// Constraints is the well-formedness of an imported FDL file, one row per
// rule in check order: structure types are acyclic, programs are
// registered once each by name, processes are unique, every process
// validates structurally with its subprocess references resolved within
// the file, and every program activity references a registered program.
var Constraints = atm.Table[*File]{
	{Name: "fdl.no-type-cycles", Section: "§5 (Fig. 5)", Check: func(f *File) error {
		return f.Types.CheckCycles()
	}},
	{Name: "fdl.program-named", Section: "§5 (Fig. 5)", Check: func(f *File) error {
		for _, p := range f.Programs {
			if p.Name == "" {
				return fmt.Errorf("fdl: program with empty name")
			}
		}
		return nil
	}},
	{Name: "fdl.unique-programs", Section: "§5 (Fig. 5)", Check: func(f *File) error {
		if _, n, dup := nameSet(f.Programs, programName); dup {
			return fmt.Errorf("fdl: duplicate program %q", n)
		}
		return nil
	}},
	{Name: "fdl.unique-processes", Section: "§5 (Fig. 5)", Check: func(f *File) error {
		if _, n, dup := nameSet(f.Processes, processName); dup {
			return fmt.Errorf("fdl: duplicate process %q", n)
		}
		return nil
	}},
	{Name: "fdl.process-valid", Section: "§5 (Fig. 5)", Check: func(f *File) error {
		known, _, _ := nameSet(f.Processes, processName)
		for _, p := range f.Processes {
			if err := p.Validate(known); err != nil {
				return err
			}
		}
		return nil
	}},
	{Name: "fdl.programs-declared", Section: "§5 (Fig. 5)", Check: func(f *File) error {
		progs, _, _ := nameSet(f.Programs, programName)
		for _, p := range f.Processes {
			if err := checkPrograms(&p.Graph, p.Name, progs); err != nil {
				return err
			}
		}
		return nil
	}},
}

func programName(p *Program) string       { return p.Name }
func processName(p *model.Process) string { return p.Name }

// nameSet is the set of the names of xs, and the first name that repeats
// an earlier one (dup false: none).
func nameSet[T any](xs []T, name func(T) string) (set map[string]bool, first string, dup bool) {
	set = make(map[string]bool, len(xs))
	for _, x := range xs {
		n := name(x)
		if set[n] && !dup {
			first, dup = n, true
		}
		set[n] = true
	}
	return set, first, dup
}

func checkPrograms(g *model.Graph, proc string, progs map[string]bool) error {
	for _, a := range g.Activities {
		switch a.Kind {
		case model.KindProgram:
			if !progs[a.Program] {
				return fmt.Errorf("fdl: process %q activity %q references unregistered program %q",
					proc, a.Name, a.Program)
			}
		case model.KindBlock:
			if a.Block != nil {
				if err := checkPrograms(a.Block, proc, progs); err != nil {
					return err
				}
			}
		}
	}
	return nil
}
