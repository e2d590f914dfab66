package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

func buildDoclint(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "doclint")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// TestDoclintFindsProblems feeds the linter a broken relative link and a
// package with undocumented exported symbols; both must be reported and
// the exit status must be 1.
func TestDoclintFindsProblems(t *testing.T) {
	bin := buildDoclint(t)
	dir := t.TempDir()
	md := "see [the design](DESIGN.md) and [this](https://example.com/x) and [ok](sub/ok.md)\n"
	if err := os.MkdirAll(filepath.Join(dir, "sub"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "sub", "ok.md"), []byte("fine\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "README.md"), []byte(md), 0o644); err != nil {
		t.Fatal(err)
	}
	pkg := filepath.Join(dir, "pkg")
	if err := os.MkdirAll(pkg, 0o755); err != nil {
		t.Fatal(err)
	}
	src := `package pkg

// Documented is fine.
type Documented struct{}

type Undocumented struct{}

func Exported() {}

func unexported() {}
`
	if err := os.WriteFile(filepath.Join(pkg, "pkg.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(bin, "-md", dir, pkg)
	out, err := cmd.CombinedOutput()
	ee, ok := err.(*exec.ExitError)
	if !ok || ee.ExitCode() != 1 {
		t.Fatalf("expected exit 1, got %v\n%s", err, out)
	}
	s := string(out)
	for _, want := range []string{
		`broken link "DESIGN.md"`,
		"no package comment",
		"exported type Undocumented has no doc comment",
		"exported function Exported has no doc comment",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q\n%s", want, s)
		}
	}
	for _, bad := range []string{"example.com", "ok.md", "Documented is fine", "unexported"} {
		if strings.Contains(s, "link \""+bad) || strings.Contains(s, bad+" has no doc") {
			t.Errorf("false positive on %q\n%s", bad, s)
		}
	}
}

// TestDoclintXref pins the cross-reference check: an experiment indexed
// in DESIGN.md but absent from EXPERIMENTS.md is a finding, as is a
// mention with no index row; IDs covered only via a range ("E1–E3")
// count as mentioned; a consistent pair exits 0.
func TestDoclintXref(t *testing.T) {
	bin := buildDoclint(t)

	write := func(dir, design, experiments string) string {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, "DESIGN.md"), []byte(design), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "EXPERIMENTS.md"), []byte(experiments), 0o644); err != nil {
			t.Fatal(err)
		}
		return dir
	}

	// Consistent pair, including a range mention: clean.
	clean := write(t.TempDir(),
		"| E1 (x) | a |\n| E2 | b |\n| E3 | c |\n| B7 | d |\n",
		"The soaks E1–E3 all pass. See B7 for the table.\n")
	if out, err := exec.Command(bin, "-xref", clean).CombinedOutput(); err != nil {
		t.Fatalf("consistent pair reported findings: %v\n%s", err, out)
	}

	// Drift in both directions: indexed-but-unmentioned and
	// mentioned-but-unindexed must each be a finding.
	drift := write(t.TempDir(),
		"| E1 | a |\n| B9 | d |\n",
		"E1 passes. B14 shows near-linear scaling.\n")
	out, err := exec.Command(bin, "-xref", drift).CombinedOutput()
	ee, ok := err.(*exec.ExitError)
	if !ok || ee.ExitCode() != 1 {
		t.Fatalf("expected exit 1, got %v\n%s", err, out)
	}
	s := string(out)
	for _, want := range []string{
		"experiment B9 is indexed here but never mentioned in EXPERIMENTS.md",
		"experiment B14 is mentioned here but has no index row in DESIGN.md",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q\n%s", want, s)
		}
	}
	if strings.Contains(s, "experiment E1") {
		t.Errorf("false positive on consistent E1:\n%s", s)
	}

	// A missing document is a hard error (exit 2), not a finding.
	empty := t.TempDir()
	out, err = exec.Command(bin, "-xref", empty).CombinedOutput()
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 2 {
		t.Fatalf("missing documents: expected exit 2, got %v\n%s", err, out)
	}
}

// TestDoclintCleanTree pins the repository itself as lint-clean — the
// same invocation the CI docs job runs.
func TestDoclintCleanTree(t *testing.T) {
	bin := buildDoclint(t)
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	args := []string{"-md", root, "-xref", root, "-refs", root}
	for _, pkg := range []string{"wal", "engine", "history", "obs", "expr", "rm", "model", "fmtm", "fdl", "org",
		"account", "txdb", "atm", "atm/saga", "atm/flexible", "atm/gen", "sim"} {
		args = append(args, filepath.Join(root, "internal", pkg))
	}
	cmd := exec.Command(bin, args...)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("doclint on the repository failed: %v\n%s", err, out)
	}
}

// TestDoclintOrphanExports pins the -refs check: an exported function
// that only its own package (tests included) calls is a finding; one that
// another package calls, and anything unexported, is not.
func TestDoclintOrphanExports(t *testing.T) {
	bin := buildDoclint(t)
	root := t.TempDir()
	for name, body := range map[string]string{
		"go.mod":          "module m\n\ngo 1.22\n",
		"pkg/pkg.go":      "// Package pkg is documented.\npackage pkg\n\n// Used is called by cmd.\nfunc Used() {}\n\n// Orphan is called only by its own test.\nfunc Orphan() {}\n\nfunc unexported() {}\n",
		"pkg/pkg_test.go": "package pkg\n\nimport \"testing\"\n\nfunc TestOrphan(t *testing.T) { Orphan(); unexported() }\n",
		"cmd/main.go":     "package main\n\nimport \"m/pkg\"\n\nfunc main() { pkg.Used() }\n",
	} {
		path := filepath.Join(root, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	out, err := exec.Command(bin, "-refs", root, filepath.Join(root, "pkg")).CombinedOutput()
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 1 {
		t.Fatalf("expected exit 1, got %v\n%s", err, out)
	}
	s := string(out)
	if !strings.Contains(s, "exported function Orphan is called by no other package") {
		t.Errorf("orphan not reported:\n%s", s)
	}
	if strings.Contains(s, "Used") || strings.Contains(s, "unexported") {
		t.Errorf("false positive:\n%s", s)
	}
}

// TestDoclintWfqueryXref pins the wfquery-recipe cross-check: a recipe
// naming an unregistered subcommand, or a registered subcommand with no
// recipe, is drift and exits 2; a complete, correct runbook is clean; a
// root with no OPERATIONS.md skips the check entirely.
func TestDoclintWfqueryXref(t *testing.T) {
	bin := buildDoclint(t)

	write := func(ops string) string {
		t.Helper()
		dir := t.TempDir()
		for name, body := range map[string]string{
			"DESIGN.md":      "| E1 | a |\n",
			"EXPERIMENTS.md": "E1 passes.\n",
			"OPERATIONS.md":  ops,
		} {
			if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		return dir
	}

	// Every registered subcommand documented, inline and fenced: clean.
	clean := write("Run `wfquery agg trail.jsonl` or `wfquery reach -target B f.fdl`.\n" +
		"```\nwfquery state -wal run.wal -inst inst-1 demo.fdl\nwfquery tail -addr :9090\n```\n" +
		"Prose about wfquery subcommands does not count.\n")
	if out, err := exec.Command(bin, "-xref", clean).CombinedOutput(); err != nil {
		t.Fatalf("clean runbook reported findings: %v\n%s", err, out)
	}

	// An unregistered subcommand in a recipe and a missing recipe for a
	// registered one: both reported, exit 2.
	drift := write("Use `wfquery agg t.jsonl`, `wfquery frobnicate x`, and `wfquery reach -target B f.fdl`.\n" +
		"Also `wfquery state -wal w -inst i f.fdl`.\n")
	out, err := exec.Command(bin, "-xref", drift).CombinedOutput()
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 2 {
		t.Fatalf("drift: expected exit 2, got %v\n%s", err, out)
	}
	s := string(out)
	for _, want := range []string{
		`wfquery recipe uses subcommand "frobnicate"`,
		`registered wfquery subcommand "tail" has no recipe`,
	} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q\n%s", want, s)
		}
	}

	// No OPERATIONS.md: the wfquery check is skipped, the B/E check
	// still runs clean.
	skip := t.TempDir()
	for name, body := range map[string]string{"DESIGN.md": "| E1 | a |\n", "EXPERIMENTS.md": "E1 passes.\n"} {
		if err := os.WriteFile(filepath.Join(skip, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if out, err := exec.Command(bin, "-xref", skip).CombinedOutput(); err != nil {
		t.Fatalf("root without OPERATIONS.md should be clean: %v\n%s", err, out)
	}
}
