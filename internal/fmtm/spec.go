// Package fmtm implements Exotica/FMTM, the middleware module of §5 of
// "Advanced Transaction Models in Workflow Contexts": a pre-processor that
// converts high-level specifications of advanced transaction models into
// workflow processes. The user writes a saga or flexible-transaction
// specification; the pre-processor checks it against the model's rules,
// translates it into a process using the constructions of §4 (Figures 2
// and 4), emits FDL, and the FDL import path performs the syntactic and
// semantic checks of the Figure 5 pipeline before producing an executable
// process template.
//
// Specification syntax (single-quoted names, // and /* */ comments):
//
//	SAGA 'travel'
//	  STEP 'book_flight' COMPENSATION 'cancel_flight'
//	  STEP 'book_hotel'  COMPENSATION 'cancel_hotel'
//	END 'travel'
//
//	FLEXIBLE 'fig3'
//	  SUB 'T1' COMPENSATABLE COMPENSATION 'C1'
//	  SUB 'T2' PIVOT
//	  SUB 'T3' RETRIABLE
//	  PATH 'T1' 'T2' 'T3'
//	END 'fig3'
package fmtm

import (
	"fmt"
	"slices"
	"strings"
	"unicode"

	"repro/internal/atm"
	"repro/internal/atm/flexible"
	"repro/internal/atm/saga"
)

// SpecFile is a parsed FMTM specification file: any number of saga,
// generalized (parallel) saga and flexible transaction specifications. A
// SAGA whose steps carry AFTER clauses parses as a generalized saga.
type SpecFile struct {
	Sagas    []*saga.Spec
	General  []*saga.GeneralSpec
	Flexible []*flexible.Spec
}

// ParseSpec parses an FMTM specification file and checks it, per the
// paper: "The pre-processor checks that the user specification meets the
// format of the advanced transaction model specified." Every specification
// is held to its model's constraint table (saga.Constraints,
// flexible.Constraints), then the file to FileConstraints; a rejection
// names the constraint it broke (atm.Violation).
func ParseSpec(src string) (*SpecFile, error) {
	p := &specParser{}
	if err := p.scan(src); err != nil {
		return nil, err
	}
	file := &SpecFile{}
	for !p.eof() {
		switch {
		case p.peekKeyword("SAGA"):
			s, gen, err := p.parseSaga()
			if err != nil {
				return nil, err
			}
			if gen != nil {
				file.General = append(file.General, gen)
			} else {
				file.Sagas = append(file.Sagas, s)
			}
		case p.peekKeyword("FLEXIBLE"):
			f, err := p.parseFlexible()
			if err != nil {
				return nil, err
			}
			file.Flexible = append(file.Flexible, f)
		default:
			return nil, p.errf("expected SAGA or FLEXIBLE")
		}
	}
	if len(file.Sagas) == 0 && len(file.General) == 0 && len(file.Flexible) == 0 {
		return nil, fmt.Errorf("fmtm: empty specification")
	}
	if err := file.check(); err != nil {
		return nil, err
	}
	return file, nil
}

// FileConstraints is the well-formedness of a specification file beyond
// each transaction's own model. Every transaction becomes a process of one
// FDL file, named after it and with state structures named after it, so
// transaction names are unique in a file; and no saga subtransaction may
// take an activity name the Figure 2 construction reserves.
var FileConstraints = atm.Table[*SpecFile]{
	{Name: "fmtm.unique-transaction-names", Section: "§5 (Fig. 5)", Check: func(f *SpecFile) error {
		var names []string
		for _, s := range f.sagas() {
			names = append(names, s.Name)
		}
		for _, x := range f.Flexible {
			names = append(names, x.Name)
		}
		for i, n := range names {
			if slices.Contains(names[:i], n) {
				return fmt.Errorf("fmtm: transaction name %q is used twice", n)
			}
		}
		return nil
	}},
	{Name: "fmtm.reserved-names", Section: "§4.1 (Fig. 2)", Check: func(f *SpecFile) error {
		for _, s := range f.sagas() {
			for _, st := range s.Steps {
				for _, n := range []string{st.Name, st.Compensation} {
					switch n {
					case forwardBlockName, compensationBlockName, nopActivityName:
						return fmt.Errorf("fmtm: saga %s: %q is a reserved activity name", s.Name, n)
					}
				}
			}
		}
		return nil
	}},
}

// check is the pre-processor's check: every specification against its
// model's constraints, then the file against FileConstraints. The saga
// translators run it on a file of their one saga.
func (f *SpecFile) check() error {
	for _, s := range f.sagas() {
		if err := s.Validate(); err != nil {
			return err
		}
	}
	for _, x := range f.Flexible {
		if _, err := flexible.BuildTrie(x); err != nil {
			return err
		}
	}
	return FileConstraints.Check(f)
}

// sagas lists the file's sagas, linear ones as generalized sagas without
// dependencies.
func (f *SpecFile) sagas() []*saga.GeneralSpec {
	out := slices.Clone(f.General)
	for _, s := range f.Sagas {
		out = append(out, &saga.GeneralSpec{Name: s.Name, Steps: s.Steps})
	}
	return out
}

type specTok struct {
	kw   string // upper-cased keyword, or "" for names
	name string
	line int
}

type specParser struct {
	toks []specTok
	pos  int
}

func (p *specParser) scan(src string) error {
	line := 1
	i := 0
	for i < len(src) {
		c := src[i]
		switch {
		case c == '\n':
			line++
			i++
		case c == ' ' || c == '\t' || c == '\r':
			i++
		case c == '/' && i+1 < len(src) && src[i+1] == '/':
			for i < len(src) && src[i] != '\n' {
				i++
			}
		case c == '/' && i+1 < len(src) && src[i+1] == '*':
			i += 2
			for {
				if i+1 >= len(src) {
					return fmt.Errorf("fmtm: line %d: unterminated comment", line)
				}
				if src[i] == '\n' {
					line++
				}
				if src[i] == '*' && src[i+1] == '/' {
					i += 2
					break
				}
				i++
			}
		case c == '\'':
			start := i + 1
			j := start
			for j < len(src) && src[j] != '\'' && src[j] != '\n' {
				j++
			}
			if j >= len(src) || src[j] != '\'' {
				return fmt.Errorf("fmtm: line %d: unterminated name", line)
			}
			p.toks = append(p.toks, specTok{name: src[start:j], line: line})
			i = j + 1
		case unicode.IsLetter(rune(c)) || c == '_':
			j := i
			for j < len(src) {
				r := rune(src[j])
				if !unicode.IsLetter(r) && !unicode.IsDigit(r) && r != '_' {
					break
				}
				j++
			}
			p.toks = append(p.toks, specTok{kw: strings.ToUpper(src[i:j]), line: line})
			i = j
		default:
			return fmt.Errorf("fmtm: line %d: unexpected character %q", line, c)
		}
	}
	return nil
}

func (p *specParser) eof() bool { return p.pos >= len(p.toks) }

func (p *specParser) errf(format string, args ...any) error {
	line := 0
	if p.pos < len(p.toks) {
		line = p.toks[p.pos].line
	} else if len(p.toks) > 0 {
		line = p.toks[len(p.toks)-1].line
	}
	return fmt.Errorf("fmtm: line %d: %s", line, fmt.Sprintf(format, args...))
}

func (p *specParser) peekKeyword(kw string) bool {
	return !p.eof() && p.toks[p.pos].kw == kw
}

func (p *specParser) acceptKeyword(kw string) bool {
	if p.peekKeyword(kw) {
		p.pos++
		return true
	}
	return false
}

func (p *specParser) expectKeyword(kw string) error {
	if !p.acceptKeyword(kw) {
		return p.errf("expected %s", kw)
	}
	return nil
}

func (p *specParser) expectName() (string, error) {
	if p.eof() || p.toks[p.pos].kw != "" {
		return "", p.errf("expected a 'quoted name'")
	}
	n := p.toks[p.pos].name
	p.pos++
	return n, nil
}

func (p *specParser) expectEnd(name string) error {
	if err := p.expectKeyword("END"); err != nil {
		return err
	}
	got, err := p.expectName()
	if err != nil {
		return err
	}
	if got != name {
		return p.errf("END %q does not match %q", got, name)
	}
	return nil
}

// parseSaga parses a SAGA block. When any step carries an AFTER clause the
// result is a generalized (parallel) saga and the second return value is
// non-nil; otherwise the first is a linear saga.
func (p *specParser) parseSaga() (*saga.Spec, *saga.GeneralSpec, error) {
	p.pos++ // SAGA
	name, err := p.expectName()
	if err != nil {
		return nil, nil, err
	}
	s := &saga.Spec{Name: name}
	deps := map[string][]string{}
	hasDeps := false
	for p.peekKeyword("STEP") {
		p.pos++
		stepName, err := p.expectName()
		if err != nil {
			return nil, nil, err
		}
		if err := p.expectKeyword("COMPENSATION"); err != nil {
			return nil, nil, err
		}
		comp, err := p.expectName()
		if err != nil {
			return nil, nil, err
		}
		if p.acceptKeyword("AFTER") {
			hasDeps = true
			var after []string
			for !p.eof() && p.toks[p.pos].kw == "" {
				d, _ := p.expectName()
				after = append(after, d)
			}
			if len(after) == 0 {
				return nil, nil, p.errf("AFTER without step names")
			}
			deps[stepName] = after
		}
		s.Steps = append(s.Steps, saga.Step{Name: stepName, Compensation: comp})
	}
	if err := p.expectEnd(name); err != nil {
		return nil, nil, err
	}
	if hasDeps {
		return nil, &saga.GeneralSpec{Name: name, Steps: s.Steps, Deps: deps}, nil
	}
	return s, nil, nil
}

func (p *specParser) parseFlexible() (*flexible.Spec, error) {
	p.pos++ // FLEXIBLE
	name, err := p.expectName()
	if err != nil {
		return nil, err
	}
	f := &flexible.Spec{Name: name}
	for {
		switch {
		case p.peekKeyword("SUB"):
			p.pos++
			subName, err := p.expectName()
			if err != nil {
				return nil, err
			}
			sub := flexible.SubSpec{Name: subName}
			sawType := false
			for {
				switch {
				case p.acceptKeyword("COMPENSATABLE"):
					sub.Compensatable = true
					sawType = true
				case p.acceptKeyword("RETRIABLE"):
					sub.Retriable = true
					sawType = true
				case p.acceptKeyword("PIVOT"):
					sawType = true
				case p.acceptKeyword("COMPENSATION"):
					comp, err := p.expectName()
					if err != nil {
						return nil, err
					}
					sub.Compensation = comp
				default:
					goto doneSub
				}
			}
		doneSub:
			if !sawType {
				return nil, p.errf("subtransaction %q needs a type (COMPENSATABLE, RETRIABLE or PIVOT)", subName)
			}
			f.Subs = append(f.Subs, sub)
		case p.peekKeyword("PATH"):
			p.pos++
			var path []string
			for !p.eof() && p.toks[p.pos].kw == "" {
				n, _ := p.expectName()
				path = append(path, n)
			}
			f.Paths = append(f.Paths, path)
		default:
			if err := p.expectEnd(name); err != nil {
				return nil, err
			}
			return f, nil
		}
	}
}
