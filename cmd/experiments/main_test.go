package main

import (
	"io"
	"strings"
	"testing"
)

// TestParseFlagsRefusesUnknownNames: a name -run does not know, alone or
// inside a list, is an error naming it and the valid names — not a
// silently skipped experiment — and so is a -trials below 1.
func TestParseFlagsRefusesUnknownNames(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string // a substring of the error
	}{
		{[]string{"-run", "fig7"}, `unknown experiment "fig7"`},
		{[]string{"-run", "table2,fgi8"}, `unknown experiment "fgi8"`},
		{[]string{"-run", "table1,"}, `unknown experiment ""`},
		{[]string{"-trials", "0"}, "-trials must be at least 1, got 0"},
		{[]string{"-run", "fig12", "-trials", "-3"}, "-trials must be at least 1, got -3"},
		{[]string{"table1"}, `unexpected argument "table1"`},
	} {
		_, err := parseFlags(tc.args, io.Discard)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v: error %v, want one containing %q", tc.args, err, tc.want)
			continue
		}
		if strings.HasPrefix(tc.want, "unknown") && !strings.Contains(err.Error(), "valid: all, table1, table2, table3, table4, table5, fig8, fig9, fig10, fig11, fig12") {
			t.Errorf("%v: error %q does not list the valid names", tc.args, err)
		}
	}
}

func TestParseFlagsAcceptsKnownNames(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want []string
	}{
		{nil, []string{"all"}},
		{[]string{"-run", "table1, table3"}, []string{"table1", "table3"}},
		{[]string{"-run", "fig12", "-trials", "1"}, []string{"fig12"}},
	} {
		o, err := parseFlags(tc.args, io.Discard)
		if err != nil {
			t.Fatalf("%v: %v", tc.args, err)
		}
		if len(o.want) != len(tc.want) {
			t.Fatalf("%v: want %v, got %v", tc.args, tc.want, o.want)
		}
		for _, name := range tc.want {
			if !o.want[name] {
				t.Fatalf("%v: %q not selected (%v)", tc.args, name, o.want)
			}
		}
	}
}
