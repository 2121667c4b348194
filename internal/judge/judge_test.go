package judge

import (
	"testing"

	"simrankpp/internal/workload"
)

func testUniverse(t *testing.T) *workload.Universe {
	t.Helper()
	cfg := workload.DefaultUniverseConfig()
	cfg.Categories = 3
	cfg.SubtopicsPerCategory = 3
	cfg.IntentsPerSubtopic = 3
	u, err := workload.BuildUniverse(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return u
}

// findPair returns the texts of a query pair with the wanted relation.
func findPair(t *testing.T, u *workload.Universe, want workload.Relation) (string, string) {
	t.Helper()
	for i := range u.Queries {
		for j := range u.Queries {
			if i != j && u.Relation(i, j) == want {
				return u.Queries[i].Text, u.Queries[j].Text
			}
		}
	}
	t.Fatalf("no pair with relation %v", want)
	return "", ""
}

func TestGradeMatchesHierarchy(t *testing.T) {
	u := testUniverse(t)
	o := New(u)
	for _, tc := range []struct {
		rel  workload.Relation
		want int
	}{
		{workload.SameIntent, GradePrecise},
		{workload.SameSubtopic, GradeApproximate},
		{workload.SameCategory, GradePossible},
		{workload.Unrelated, GradeMismatch},
	} {
		q, r := findPair(t, u, tc.rel)
		if got := o.Grade(q, r); got != tc.want {
			t.Errorf("Grade(%v pair) = %d want %d", tc.rel, got, tc.want)
		}
	}
}

func TestGradeUnknownIsMismatch(t *testing.T) {
	u := testUniverse(t)
	o := New(u)
	if got := o.Grade("gibberish query", u.Queries[0].Text); got != GradeMismatch {
		t.Errorf("unknown query graded %d want %d", got, GradeMismatch)
	}
}
