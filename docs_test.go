package srumma

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

var (
	makeTarget  = regexp.MustCompile(`(?m)^([a-z][a-z0-9-]*):`)
	makeMention = regexp.MustCompile("(?:`|run: )make((?:\\s+[a-z][a-z0-9-]*)+)")
)

// TestDocsNameLiveMakeTargets keeps a deleted Makefile target from leaving
// its mentions behind: every `make <target>...` the living documents show
// (and every `run: make ...` step of CI) must name targets the Makefile
// has. CHANGES.md and ROADMAP.md are history and are not read.
func TestDocsNameLiveMakeTargets(t *testing.T) {
	makefile, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	targets := map[string]bool{}
	for _, m := range makeTarget.FindAllSubmatch(makefile, -1) {
		targets[string(m[1])] = true
	}
	for _, doc := range []string{
		"README.md", "DESIGN.md", "EXPERIMENTS.md",
		".github/workflows/ci.yml", ".claude/skills/verify/SKILL.md",
	} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range makeMention.FindAllSubmatch(text, -1) {
			for _, name := range strings.Fields(string(m[1])) {
				if !targets[name] {
					t.Errorf("%s shows `make %s`, which the Makefile does not have", doc, name)
				}
			}
		}
	}
}

var (
	goTestRun = regexp.MustCompile(`(?:\$\(GO\)|\bgo) test\b[^;\n]*?-run[ =]('[^']*'|\S+)([^;\n]*)`)
	testFunc  = regexp.MustCompile(`(?m)^func (Test\w*)\(`)
)

// TestRunPatternsNameLiveTests keeps a renamed or deleted test from leaving
// a `-run` pattern that silently runs nothing: for every `go test ... -run
// '<pattern>' <packages>` in the Makefile and CI (but '^$', which asks for
// no test on purpose), each top-level alternative of the pattern must match
// a Test function of the named packages.
func TestRunPatternsNameLiveTests(t *testing.T) {
	for _, file := range []string{"Makefile", ".github/workflows/ci.yml"} {
		text, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range goTestRun.FindAllStringSubmatch(strings.ReplaceAll(string(text), "$$", "$"), -1) {
			pattern := strings.Trim(m[1], `'"`)
			if pattern == "^$" {
				continue
			}
			var tests []string
			for _, pkg := range strings.Fields(m[2]) {
				if strings.HasPrefix(pkg, "./") {
					tests = append(tests, testFuncs(t, pkg)...)
				}
			}
			if len(tests) == 0 {
				t.Errorf("%s: `-run %s` names no package with tests: %q", file, m[1], m[0])
				continue
			}
			for _, alt := range topLevel(strings.SplitN(pattern, "/", 2)[0]) {
				re, err := regexp.Compile(alt)
				if err != nil {
					t.Errorf("%s: `-run %s`: %v", file, m[1], err)
					continue
				}
				if !matchesAny(re, tests) {
					t.Errorf("%s: `-run %s`: %q matches no test in %s", file, m[1], alt, strings.TrimSpace(m[2]))
				}
			}
		}
	}
}

// testFuncs lists the Test functions of the package at pkg ("./dir", or
// "./dir/..." for the tree below it).
func testFuncs(t *testing.T, pkg string) []string {
	t.Helper()
	dir, tree := strings.CutSuffix(strings.TrimPrefix(pkg, "./"), "/...")
	var names []string
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != dir && !tree {
			return filepath.SkipDir
		}
		if !d.IsDir() && strings.HasSuffix(path, "_test.go") {
			src, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			for _, m := range testFunc.FindAllStringSubmatch(string(src), -1) {
				names = append(names, m[1])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return names
}

// topLevel splits a regexp at the | that are not inside parentheses or a
// character class.
func topLevel(re string) []string {
	var alts []string
	depth, class, start := 0, false, 0
	for i := 0; i < len(re); i++ {
		switch c := re[i]; {
		case c == '\\':
			i++
		case class:
			class = c != ']'
		case c == '[':
			class = true
		case c == '(':
			depth++
		case c == ')':
			depth--
		case c == '|' && depth == 0:
			alts = append(alts, re[start:i])
			start = i + 1
		}
	}
	return append(alts, re[start:])
}

func matchesAny(re *regexp.Regexp, names []string) bool {
	for _, n := range names {
		if re.MatchString(n) {
			return true
		}
	}
	return false
}

var benchFile = regexp.MustCompile(`BENCH\w*\.json`)

// TestDocsNameLiveDataFiles is the same for committed result files: every
// BENCH*.json the living documents, the Makefile, CI and the scripts name
// must exist. EXPERIMENTS.md's dated records, CHANGES.md and ROADMAP.md are
// history and are not read.
func TestDocsNameLiveDataFiles(t *testing.T) {
	docs := []string{
		"README.md", "DESIGN.md", "Makefile",
		".github/workflows/ci.yml", ".claude/skills/verify/SKILL.md",
	}
	scripts, err := os.ReadDir("scripts")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range scripts {
		docs = append(docs, "scripts/"+e.Name())
	}
	for _, doc := range docs {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range benchFile.FindAllString(string(text), -1) {
			if _, err := os.Stat(name); err != nil {
				t.Errorf("%s names %s, which is not in the repository", doc, name)
			}
		}
	}
}

var docTestName = regexp.MustCompile("`(Test\\w*)(\\*?)`")

// TestDocsNameLiveTests keeps a renamed or deleted test from leaving its
// name behind: every backticked `TestXxx` in README.md, DESIGN.md and the
// verify skill must name a Test function somewhere in the module. A
// trailing * reads as a prefix (`TestGemm*`). EXPERIMENTS.md, CHANGES.md
// and ROADMAP.md are history and are not read.
func TestDocsNameLiveTests(t *testing.T) {
	live := testFuncs(t, ".")
	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() && !strings.HasPrefix(e.Name(), ".") {
			live = append(live, testFuncs(t, "./"+e.Name()+"/...")...)
		}
	}
	for _, doc := range []string{"README.md", "DESIGN.md", ".claude/skills/verify/SKILL.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range docTestName.FindAllStringSubmatch(string(text), -1) {
			pattern := "^" + m[1] + "$"
			if m[2] == "*" {
				pattern = "^" + m[1]
			}
			if !matchesAny(regexp.MustCompile(pattern), live) {
				t.Errorf("%s names `%s%s`, which is no test in the module", doc, m[1], m[2])
			}
		}
	}
}

// flagTools are the CLIs whose invocations TestDocsShowRegisteredFlags
// reads; srumma-serve and srumma-load hold their own README flag tables to
// their binaries (their TestFlagsMatchREADME).
var flagTools = []string{"srumma-bench", "srumma-trace", "srumma-plan", "srumma-info", "srumma-worker"}

// flagDocs are the files whose invocations TestDocsShowRegisteredFlags
// reads: the documents, the Makefile, and the usage text srumma-worker
// prints when started without -join.
var flagDocs = []string{"README.md", "DESIGN.md", ".claude/skills/verify/SKILL.md", "Makefile", "cmd/srumma-worker/main.go"}

// shownFlag is one -flag in an invocation.
var shownFlag = regexp.MustCompile(`[ \t]-([a-z][a-z0-9-]*)`)

// TestDocsShowRegisteredFlags keeps a renamed or deleted flag from leaving
// its invocations behind: every -flag that one of flagDocs writes after one
// of flagTools — on a command line, backslash continuations included, or
// backticked in prose, up to the end of the line or span, a pipe, a
// redirection or a comment — must be registered by that binary. What a binary registers is read from its
// source: the flag.* calls of cmd/<tool>.
func TestDocsShowRegisteredFlags(t *testing.T) {
	docs := map[string]string{}
	for _, doc := range flagDocs {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		docs[doc] = string(text)
	}
	for _, tool := range flagTools {
		registered := registeredFlags(t, filepath.Join("cmd", tool))
		invocation := regexp.MustCompile(regexp.QuoteMeta(tool) + `((?:(?:[ \t]+|[ \t]*\\\n[ \t]*)[^ \t\\` + "`" + `\n|;&#>]+)*)`)
		for doc, text := range docs {
			for _, inv := range invocation.FindAllStringSubmatch(text, -1) {
				for _, m := range shownFlag.FindAllStringSubmatch(inv[1], -1) {
					if !registered[m[1]] {
						t.Errorf("%s shows `%s`, but %s does not register -%s", doc, inv[0], tool, m[1])
					}
				}
			}
		}
	}
}

// flagDefiners are the flag functions that take the flag's name first; the
// ...Var forms (flag.IntVar, flag.Var, flag.TextVar) take it second.
var flagDefiners = map[string]bool{
	"Bool": true, "Int": true, "Int64": true, "Uint": true, "Uint64": true,
	"Float64": true, "String": true, "Duration": true, "Func": true, "BoolFunc": true,
}

// registeredFlags parses the non-test Go files of dir and returns the names
// its flag.* registration calls define (flag.Int("n", ...), flag.IntVar(&n,
// "n", ...), flag.Var(v, "n", ...), ...).
func registeredFlags(t *testing.T, dir string) map[string]bool {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	fset := token.NewFileSet()
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "flag" {
				return true
			}
			arg := 0
			if strings.HasSuffix(sel.Sel.Name, "Var") {
				arg = 1
			} else if !flagDefiners[sel.Sel.Name] {
				return true
			}
			if len(call.Args) > arg {
				if lit, ok := call.Args[arg].(*ast.BasicLit); ok && lit.Kind == token.STRING {
					if v, err := strconv.Unquote(lit.Value); err == nil {
						names[v] = true
					}
				}
			}
			return true
		})
	}
	if len(names) == 0 {
		t.Fatalf("%s registers no flag", dir)
	}
	return names
}

var (
	workloadName = regexp.MustCompile(`(?m)^\s*name:\s*"([^"]+)"`)
	// A benchmark invocation: the word benchmark (go run ./benchmark, a
	// built binary, ...) and the words after it — across backslash
	// continuations and the line breaks of wrapped prose — up to a
	// backtick, a pipe, a redirection or a comment.
	benchInvocation = regexp.MustCompile(`\bbenchmark((?:(?:[ \t]+|[ \t]*\\?\n[ \t]*)[^ \t\\` + "`" + `\n|;&#>]+)*)`)
	shownWorkload   = regexp.MustCompile(`(?:^|\s)-workload(?:=|\s+)([^\s]+)`)
	// A workload name as the benchmark defines them; anything else after
	// -workload (W, "$w") is a placeholder.
	workloadLike = regexp.MustCompile(`^[a-z][a-z0-9]*(?:-[a-z0-9]+)+$`)
)

// TestDocsNameLiveWorkloads keeps a renamed or deleted benchmark workload
// from leaving its invocations behind: every -workload W that the living
// documents, the Makefile or CI pass to the benchmark must be a workload
// benchmark/workloads.go defines. Only the command form is read, so prose
// such as "single-workload probe" is not a name, and a placeholder (W) is
// not checked. CHANGES.md and ROADMAP.md are history and are not read.
func TestDocsNameLiveWorkloads(t *testing.T) {
	src, err := os.ReadFile("benchmark/workloads.go")
	if err != nil {
		t.Fatal(err)
	}
	defined := map[string]bool{}
	for _, m := range workloadName.FindAllSubmatch(src, -1) {
		defined[string(m[1])] = true
	}
	if len(defined) == 0 {
		t.Fatal("benchmark/workloads.go defines no workload")
	}
	for _, doc := range []string{
		"README.md", "DESIGN.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md",
		"Makefile", ".github/workflows/ci.yml",
	} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, inv := range benchInvocation.FindAllStringSubmatch(string(text), -1) {
			for _, m := range shownWorkload.FindAllStringSubmatch(inv[1], -1) {
				name := strings.TrimRight(m[1], ".,:)")
				if workloadLike.MatchString(name) && !defined[name] {
					t.Errorf("%s shows `benchmark ... -workload %s`, which benchmark/workloads.go does not define", doc, name)
				}
			}
		}
	}
}
