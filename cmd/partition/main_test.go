package main

import (
	"io"
	"strings"
	"testing"
)

// TestParseFlagsRefusesStrayFlags: a flag the chosen mode never reads is
// an error naming it and the mode, not a silently ignored setting.
func TestParseFlagsRefusesStrayFlags(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string // a substring of the error
	}{
		{[]string{"-graph", "g", "-plan", "-count", "3"}, "-count not used with -plan"},
		{[]string{"-graph", "g", "-plan", "-min-nodes", "10", "-out-prefix", "x"}, "-min-nodes, -out-prefix not used with -plan"},
		{[]string{"-graph", "g", "-max-shard-nodes", "100"}, "-max-shard-nodes not used by subgraph extraction"},
		{[]string{"-graph", "g", "-count", "2", "-min-cut-nodes", "8"}, "-min-cut-nodes not used by subgraph extraction"},
		{[]string{"-graph", "g", "-plan=false", "-max-shard-nodes", "100"}, "-max-shard-nodes not used by subgraph extraction"},
		{[]string{"-count", "3"}, "-graph is required"},
		{[]string{"-graph", "g", "subgraph"}, `unexpected argument "subgraph"`},
	} {
		_, err := parseFlags(tc.args, io.Discard)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v: error %v, want one containing %q", tc.args, err, tc.want)
		}
	}
}

func TestParseFlagsAcceptsEachModesFlags(t *testing.T) {
	for _, tc := range []struct {
		args []string
		plan bool
	}{
		{[]string{"-graph", "g"}, false},
		{[]string{"-graph", "g", "-count", "3", "-min-nodes", "10", "-out-prefix", "p", "-alpha", "0.2", "-epsilon", "1e-5"}, false},
		{[]string{"-graph", "g", "-plan=false", "-count", "2"}, false},
		{[]string{"-graph", "g", "-plan", "-max-shard-nodes", "100", "-min-cut-nodes", "8", "-alpha", "0.2"}, true},
	} {
		o, err := parseFlags(tc.args, io.Discard)
		if err != nil {
			t.Fatalf("%v: %v", tc.args, err)
		}
		if o.plan != tc.plan || o.graph != "g" {
			t.Errorf("%v: parsed %+v", tc.args, o)
		}
	}
}
