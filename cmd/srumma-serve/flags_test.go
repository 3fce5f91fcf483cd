package main

import (
	"flag"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// otherTools are flags of OTHER binaries (srumma-load, srumma-worker,
// srumma-plan, go test) that README's Serving section legitimately names.
// A backticked -flag there that is neither one of these nor registered by
// srumma-serve is a stale mention.
var otherTools = map[string]bool{
	"wire": true, "repeat-operands": true,
	"min-cache-hits": true, "out": true, // srumma-load
	"join": true, "rank": true, "np": true, "dir": true, "transport": true, // srumma-worker
	"race": true,
}

var (
	tableRow   = regexp.MustCompile("(?m)^\\| `-([a-z0-9-]+)` \\|")
	cmdFlag    = regexp.MustCompile(` -([a-z][a-z0-9-]*)`)
	quotedFlag = regexp.MustCompile("`-([a-z][a-z0-9-]*)[ `]")
)

// TestFlagsMatchREADME keeps the binary and its documentation from
// drifting: the flag table in README's Serving section lists exactly the
// flags the binary registers, every srumma-serve command line shown there
// uses registered flags only, and the prose names no flag that is gone.
func TestFlagsMatchREADME(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(readme), "\n## Serving\n")
	if !ok {
		t.Fatal("README has no Serving section")
	}
	section, _, _ = strings.Cut(section, "\n## ")
	_, table, ok := strings.Cut(section, "\n### `srumma-serve` flags\n")
	if !ok {
		t.Fatal("README's Serving section has no `srumma-serve` flags table")
	}
	table, _, _ = strings.Cut(table, "\n### ")

	registered := map[string]bool{}
	flag.VisitAll(func(f *flag.Flag) {
		if !strings.HasPrefix(f.Name, "test.") {
			registered[f.Name] = true
		}
	})

	listed := map[string]bool{}
	for _, m := range tableRow.FindAllStringSubmatch(table, -1) {
		listed[m[1]] = true
	}
	for _, name := range sorted(registered) {
		if !listed[name] {
			t.Errorf("flag -%s is registered but missing from README's flag table", name)
		}
	}
	for _, name := range sorted(listed) {
		if !registered[name] {
			t.Errorf("README's flag table lists -%s, which the binary does not register", name)
		}
	}

	// Command lines: every flag on a shown srumma-serve invocation (and its
	// backslash-continued lines).
	lines := strings.Split(section, "\n")
	for i := 0; i < len(lines); i++ {
		if !strings.Contains(lines[i], "cmd/srumma-serve ") {
			continue
		}
		cmd := lines[i]
		for strings.HasSuffix(cmd, "\\") && i+1 < len(lines) {
			i++
			cmd += lines[i]
		}
		for _, m := range cmdFlag.FindAllStringSubmatch(cmd, -1) {
			if !registered[m[1]] {
				t.Errorf("README shows `%s` with -%s, which the binary does not register", strings.TrimSpace(cmd), m[1])
			}
		}
	}

	// Prose: backticked flags.
	for _, m := range quotedFlag.FindAllStringSubmatch(section, -1) {
		if !registered[m[1]] && !otherTools[m[1]] {
			t.Errorf("README's Serving section names `-%s`: not a srumma-serve flag (stale?), and not a known flag of another tool", m[1])
		}
	}
}

func sorted(set map[string]bool) []string {
	names := make([]string, 0, len(set))
	for n := range set {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
