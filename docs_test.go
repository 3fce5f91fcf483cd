package srumma

import (
	"os"
	"regexp"
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
