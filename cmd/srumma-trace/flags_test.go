package main

import (
	"flag"
	"os"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// An invocation as the documents show it — on a command line (backslash
// continuations included) or backticked in prose: the tool's name and the
// words after it, up to the end of the line or of the backticked span, a
// pipe or a redirection. Scoping to the invocation, not the paragraph, is
// what lets one code block show several tools.
var (
	invocation = regexp.MustCompile("srumma-trace((?:(?: +| *\\\\\n *)[^ `\n|;&#>]+)*)")
	shownFlag  = regexp.MustCompile(" -([a-z][a-z0-9-]*)")
)

// TestFlagsMatchREADME keeps the binary and its documentation from
// drifting: the binary registers exactly the flags of one traced run (no
// sweep, no keyed merge), and every srumma-trace invocation README and DESIGN
// show — command line or prose — uses registered flags only.
func TestFlagsMatchREADME(t *testing.T) {
	want := strings.Fields("alg blocking chrome dir engine listen min-overlap n no-spawn noshift out platform ppn procs transport validate width")
	var registered []string
	flag.VisitAll(func(f *flag.Flag) {
		if !strings.HasPrefix(f.Name, "test.") {
			registered = append(registered, f.Name)
		}
	})
	sort.Strings(registered)
	if !reflect.DeepEqual(registered, want) {
		t.Errorf("registered flags %v, want %v", registered, want)
	}

	for _, doc := range []string{"../../README.md", "../../DESIGN.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, inv := range invocation.FindAllStringSubmatch(string(text), -1) {
			for _, m := range shownFlag.FindAllStringSubmatch(inv[1], -1) {
				if flag.Lookup(m[1]) == nil {
					t.Errorf("%s shows `%s`, but the binary does not register -%s", doc, inv[0], m[1])
				}
			}
		}
	}
}
