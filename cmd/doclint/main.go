// Command doclint is the repository's documentation linter, run by the
// CI docs job. It has four checks, all standard library only:
//
//	doclint -md .                         # relative markdown links resolve
//	doclint -xref .                       # DESIGN.md index <-> EXPERIMENTS.md agree
//	doclint internal/wal internal/engine  # exported symbols have doc comments
//	doclint -refs . internal/wal          # ... and every exported function has a caller elsewhere
//
// The -md check walks the tree for *.md files and verifies that every
// relative link target exists (external http(s)/mailto links and pure
// #anchors are skipped; a trailing #fragment is stripped before the
// check). The package check parses each listed directory with go/doc and
// requires a package comment plus a doc comment on every exported
// package-level type, function, method, and const/var group — the same
// contract go vet's stdlib analyzers assume but do not enforce. With
// -refs, each listed package must also export no top-level function that
// no other package under the -refs directory calls (see
// checkDocComments).
//
// The -xref check keeps the two experiment documents from drifting: every
// measurement table (B1, B2, ...) and correctness experiment / soak (E1,
// E2, ...) indexed in DESIGN.md's experiment-index table must be
// mentioned in EXPERIMENTS.md, and every B/E identifier EXPERIMENTS.md
// mentions (ranges like "E1–E10" are expanded) must have an index row in
// DESIGN.md — an experiment without an index row is undocumented, an
// index row without a mention is unmeasured.
//
// When the -xref directory has an OPERATIONS.md, the check also
// cross-references its wfquery recipes against the CLI's registered
// subcommands (history.Subcommands(), the same registry cmd/wfquery
// dispatches from): every `wfquery <sub>` mentioned in code spans or
// fenced blocks must name a registered subcommand, and every registered
// subcommand must have at least one documented recipe. Drift here means
// the runbook's copy-pasteable one-liners would not run — it exits 2
// (hard error), not 1.
//
// Exit status: 0 clean, 1 findings (each printed as file:line: message),
// 2 usage or parse errors — or documented wfquery recipes drifting from
// the binary's registered subcommands.
package main

import (
	"flag"
	"fmt"
	"go/ast"
	"go/doc"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	pathpkg "path"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"

	"repro/internal/history"
)

func main() {
	mdRoot := flag.String("md", "", "walk this directory and check relative links in every *.md file")
	xrefRoot := flag.String("xref", "", "cross-check the B/E experiment identifiers of DESIGN.md and EXPERIMENTS.md in this directory")
	refsRoot := flag.String("refs", "", "also require every exported top-level function of each package-dir to be called by another package under this directory")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: doclint [-md dir] [-xref dir] [-refs dir] [package-dir]...\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if *mdRoot == "" && *xrefRoot == "" && flag.NArg() == 0 {
		flag.Usage()
		os.Exit(2)
	}

	findings := 0
	report := func(pos, msg string) {
		fmt.Printf("%s: %s\n", pos, msg)
		findings++
	}

	if *mdRoot != "" {
		if err := checkMarkdown(*mdRoot, report); err != nil {
			fmt.Fprintf(os.Stderr, "doclint: %v\n", err)
			os.Exit(2)
		}
	}
	drift := 0
	if *xrefRoot != "" {
		if err := checkXref(*xrefRoot, report); err != nil {
			fmt.Fprintf(os.Stderr, "doclint: %v\n", err)
			os.Exit(2)
		}
		if err := checkWfqueryXref(*xrefRoot, func(pos, msg string) {
			report(pos, msg)
			drift++
		}); err != nil {
			fmt.Fprintf(os.Stderr, "doclint: %v\n", err)
			os.Exit(2)
		}
	}
	for _, dir := range flag.Args() {
		var called map[string]bool
		var err error
		if *refsRoot != "" {
			called, err = callsInto(*refsRoot, dir)
		}
		if err == nil {
			err = checkDocComments(dir, called, report)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "doclint: %v\n", err)
			os.Exit(2)
		}
	}
	if findings > 0 {
		fmt.Printf("doclint: %d finding(s)\n", findings)
		if drift > 0 {
			// Subcommand drift means documented recipes would not run —
			// a registry disagreement, not a doc typo.
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// mdLink matches inline markdown links and images: [text](target) with an
// optional "title". Targets with spaces are not used in this repository.
var mdLink = regexp.MustCompile(`!?\[[^\]]*\]\(([^)\s]+)(?:\s+"[^"]*")?\)`)

// checkMarkdown walks root for *.md files (skipping VCS metadata) and
// verifies every relative link target exists on disk.
func checkMarkdown(root string, report func(pos, msg string)) error {
	return filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == ".git" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(d.Name(), ".md") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		lines := strings.Split(string(data), "\n")
		for i, line := range lines {
			for _, m := range mdLink.FindAllStringSubmatch(line, -1) {
				target := m[1]
				if strings.Contains(target, "://") ||
					strings.HasPrefix(target, "mailto:") ||
					strings.HasPrefix(target, "#") {
					continue
				}
				if idx := strings.IndexByte(target, '#'); idx >= 0 {
					target = target[:idx]
				}
				if target == "" {
					continue
				}
				resolved := filepath.Join(filepath.Dir(path), target)
				if _, err := os.Stat(resolved); err != nil {
					report(fmt.Sprintf("%s:%d", path, i+1),
						fmt.Sprintf("broken link %q (resolved %s)", m[1], resolved))
				}
			}
		}
		return nil
	})
}

// xrefIndexRow matches a DESIGN.md experiment-index table row: a table
// line whose first cell starts with a B/E identifier, e.g. "| B14 |" or
// "| E7 (WAL soak) |".
var xrefIndexRow = regexp.MustCompile(`^\|\s*([EB]\d+)\b`)

// xrefID matches a single B/E experiment identifier; xrefRange matches
// an identifier range like "E1–E10", "E1-E10" or "B1..B14" (the second
// endpoint's letter may be omitted).
var (
	xrefID    = regexp.MustCompile(`\b([EB])(\d+)\b`)
	xrefRange = regexp.MustCompile(`\b([EB])(\d+)\s*(?:–|—|-|\.\.)\s*(?:[EB])?(\d+)\b`)
)

// checkXref cross-references DESIGN.md's experiment-index rows against
// the B/E identifiers EXPERIMENTS.md mentions: both directions must
// cover each other, so a new benchmark table or soak cannot land in one
// document without the other.
func checkXref(root string, report func(pos, msg string)) error {
	designPath := filepath.Join(root, "DESIGN.md")
	expPath := filepath.Join(root, "EXPERIMENTS.md")
	design, err := os.ReadFile(designPath)
	if err != nil {
		return err
	}
	exp, err := os.ReadFile(expPath)
	if err != nil {
		return err
	}
	indexed := make(map[string]int) // ID -> first index-row line in DESIGN.md
	for i, line := range strings.Split(string(design), "\n") {
		if m := xrefIndexRow.FindStringSubmatch(line); m != nil {
			if _, dup := indexed[m[1]]; !dup {
				indexed[m[1]] = i + 1
			}
		}
	}
	mentioned := make(map[string]int) // ID -> first mention line in EXPERIMENTS.md
	mention := func(id string, line int) {
		if _, dup := mentioned[id]; !dup {
			mentioned[id] = line
		}
	}
	for i, line := range strings.Split(string(exp), "\n") {
		for _, m := range xrefRange.FindAllStringSubmatch(line, -1) {
			lo, _ := strconv.Atoi(m[2])
			hi, _ := strconv.Atoi(m[3])
			for n := lo; n <= hi; n++ {
				mention(fmt.Sprintf("%s%d", m[1], n), i+1)
			}
		}
		for _, m := range xrefID.FindAllStringSubmatch(line, -1) {
			mention(m[1]+m[2], i+1)
		}
	}
	for _, id := range sortedXrefIDs(indexed) {
		if _, ok := mentioned[id]; !ok {
			report(fmt.Sprintf("%s:%d", designPath, indexed[id]),
				fmt.Sprintf("experiment %s is indexed here but never mentioned in EXPERIMENTS.md", id))
		}
	}
	for _, id := range sortedXrefIDs(mentioned) {
		if _, ok := indexed[id]; !ok {
			report(fmt.Sprintf("%s:%d", expPath, mentioned[id]),
				fmt.Sprintf("experiment %s is mentioned here but has no index row in DESIGN.md's experiment index", id))
		}
	}
	return nil
}

// wfqueryMention matches `wfquery <subcommand>` inside a code context.
var wfqueryMention = regexp.MustCompile(`\bwfquery\s+([a-z][a-z0-9-]*)`)

// inlineCode extracts `...` spans from a markdown line.
var inlineCode = regexp.MustCompile("`[^`]*`")

// checkWfqueryXref cross-references OPERATIONS.md's wfquery recipes
// against the CLI's registered subcommands (history.Subcommands()):
// a documented subcommand the binary does not dispatch, or a registered
// subcommand with no documented recipe, is drift. Only code contexts
// count — fenced blocks and inline code spans — so prose like "wfquery
// subcommands" is not a recipe. Roots without an OPERATIONS.md are
// skipped (the check is specific to this repository's runbook layout).
func checkWfqueryXref(root string, report func(pos, msg string)) error {
	opsPath := filepath.Join(root, "OPERATIONS.md")
	data, err := os.ReadFile(opsPath)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return err
	}
	registered := make(map[string]bool)
	for _, sub := range history.Subcommands() {
		registered[sub] = true
	}
	documented := make(map[string]int) // subcommand -> first recipe line
	inFence := false
	for i, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			inFence = !inFence
			continue
		}
		spans := []string{line}
		if !inFence {
			spans = inlineCode.FindAllString(line, -1)
		}
		for _, span := range spans {
			for _, m := range wfqueryMention.FindAllStringSubmatch(span, -1) {
				if _, dup := documented[m[1]]; !dup {
					documented[m[1]] = i + 1
				}
			}
		}
	}
	for _, sub := range sortedKeys(documented) {
		if !registered[sub] {
			report(fmt.Sprintf("%s:%d", opsPath, documented[sub]),
				fmt.Sprintf("wfquery recipe uses subcommand %q, which the CLI does not register (have: %s)",
					sub, strings.Join(history.Subcommands(), ", ")))
		}
	}
	for _, sub := range history.Subcommands() {
		if _, ok := documented[sub]; !ok {
			report(opsPath,
				fmt.Sprintf("registered wfquery subcommand %q has no recipe in OPERATIONS.md", sub))
		}
	}
	return nil
}

// sortedKeys orders a string-keyed map's keys.
func sortedKeys(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// sortedXrefIDs orders identifiers letter-first, then numerically, so
// findings print as B1, B2, ..., B10 rather than lexically.
func sortedXrefIDs(m map[string]int) []string {
	ids := make([]string, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		if ids[i][0] != ids[j][0] {
			return ids[i][0] < ids[j][0]
		}
		a, _ := strconv.Atoi(ids[i][1:])
		b, _ := strconv.Atoi(ids[j][1:])
		return a < b
	})
	return ids
}

// checkDocComments parses one package directory and reports every
// exported package-level symbol without a doc comment. With called
// non-nil (-refs) it also reports every exported top-level function no
// other package calls: an export with no caller outside its own package
// is surface nobody uses, to unexport or delete. Types, constants and
// variables are not held to that: callers reach them through values (a
// returned stats struct, a sentinel error) without having to name them.
func checkDocComments(dir string, called map[string]bool, report func(pos, msg string)) error {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		return err
	}
	for name, pkg := range pkgs {
		d := doc.New(pkg, dir, 0)
		if strings.TrimSpace(d.Doc) == "" {
			report(dir, fmt.Sprintf("package %s has no package comment", name))
		}
		pos := func(n ast.Node) string {
			p := fset.Position(n.Pos())
			return fmt.Sprintf("%s:%d", p.Filename, p.Line)
		}
		checkFuncs := func(funcs []*doc.Func) {
			for _, f := range funcs {
				if strings.TrimSpace(f.Doc) == "" {
					report(pos(f.Decl), fmt.Sprintf("exported function %s has no doc comment", f.Name))
				}
				if called != nil && !called[f.Name] {
					report(pos(f.Decl), fmt.Sprintf("exported function %s is called by no other package", f.Name))
				}
			}
		}
		checkFuncs(d.Funcs)
		checkValues := func(kind string, vals []*doc.Value) {
			for _, v := range vals {
				if strings.TrimSpace(v.Doc) == "" && len(v.Names) > 0 {
					report(pos(v.Decl), fmt.Sprintf("exported %s %s has no doc comment", kind, v.Names[0]))
				}
			}
		}
		checkValues("const", d.Consts)
		checkValues("var", d.Vars)
		for _, t := range d.Types {
			if strings.TrimSpace(t.Doc) == "" {
				report(pos(t.Decl), fmt.Sprintf("exported type %s has no doc comment", t.Name))
			}
			checkFuncs(t.Funcs)
			for _, m := range t.Methods {
				if strings.TrimSpace(m.Doc) == "" {
					report(pos(m.Decl), fmt.Sprintf("exported method %s.%s has no doc comment", t.Name, m.Name))
				}
			}
			checkValues("const", t.Consts)
			checkValues("var", t.Vars)
		}
	}
	return nil
}

// moduleLine finds the module path in a go.mod file.
var moduleLine = regexp.MustCompile(`(?m)^module\s+(\S+)`)

// callsInto returns the names every Go file under root outside dir —
// tests and nested modules included — selects from the package in dir (a
// directory under root, whose go.mod names the module).
func callsInto(root, dir string) (map[string]bool, error) {
	mod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	rel, err := filepath.Rel(root, dir)
	m := moduleLine.FindSubmatch(mod)
	if err != nil || m == nil {
		return nil, fmt.Errorf("%s: no module path for a package under %s", dir, root)
	}
	importPath, ownDir := pathpkg.Join(string(m[1]), filepath.ToSlash(rel)), filepath.Join(root, rel)
	fset := token.NewFileSet()
	called := make(map[string]bool)
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || filepath.Dir(path) == ownDir {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		for _, imp := range f.Imports {
			if imp.Path.Value != strconv.Quote(importPath) {
				continue
			}
			name := pathpkg.Base(importPath)
			if imp.Name != nil {
				name = imp.Name.Name
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if sel, ok := n.(*ast.SelectorExpr); ok {
					if x, ok := sel.X.(*ast.Ident); ok && x.Name == name {
						called[sel.Sel.Name] = true
					}
				}
				return true
			})
		}
		return nil
	})
	return called, err
}
