package main

import (
	"flag"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// TestRegisteredFlags pins the flags of one traced run (no sweep, no keyed
// merge): the binary registers exactly these. That every invocation the
// documents show uses registered flags only is the root package's
// TestDocsShowRegisteredFlags.
func TestRegisteredFlags(t *testing.T) {
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
}
