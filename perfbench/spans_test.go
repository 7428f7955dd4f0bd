package main

import (
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// TestSelfTime checks that a span's self time excludes exactly the time its
// direct children cover, and that names aggregate across calls.
func TestSelfTime(t *testing.T) {
	sp := &spans{}
	sp.begin("outer")
	time.Sleep(5 * time.Millisecond)
	for i := 0; i < 2; i++ {
		sp.in("inner", func() error {
			sp.begin("leaf")
			time.Sleep(10 * time.Millisecond)
			sp.end()
			return nil
		})
	}
	sp.end()

	st := sp.stats()
	if st["inner"].Calls != 2 || st["leaf"].Calls != 2 || st["outer"].Calls != 1 {
		t.Fatalf("calls: %+v", st)
	}
	outer, inner, leaf := st["outer"], st["inner"], st["leaf"]
	const eps = 1e-9
	if d := outer.TotalS - outer.SelfS - inner.TotalS; d > eps || d < -eps {
		t.Errorf("outer self %.6f s + children %.6f s != total %.6f s", outer.SelfS, inner.TotalS, outer.TotalS)
	}
	if d := inner.TotalS - inner.SelfS - leaf.TotalS; d > eps || d < -eps {
		t.Errorf("inner self %.6f s + children %.6f s != total %.6f s", inner.SelfS, leaf.TotalS, inner.TotalS)
	}
	if leaf.SelfS != leaf.TotalS || leaf.SelfS < 0.02 {
		t.Errorf("leaf self %.6f s, total %.6f s; want equal and at least 20 ms", leaf.SelfS, leaf.TotalS)
	}
	if outer.SelfS < 0.005 || outer.SelfS > leaf.SelfS {
		t.Errorf("outer self %.6f s, want the 5 ms it slept alone", outer.SelfS)
	}
}

// TestSpanRecords checks the spans written out: every span names its
// parent, children precede their parents, and durations nest.
func TestSpanRecords(t *testing.T) {
	sp := &spans{}
	sp.in("root", func() error {
		sp.in("a", func() error { return nil })
		sp.in("b", func() error {
			sp.in("c", func() error { return nil })
			return nil
		})
		return nil
	})
	parent := map[string]string{}
	byID := map[int]doneSpan{}
	for _, d := range sp.done {
		byID[d.id] = d
	}
	for _, d := range sp.done {
		if d.parent >= 0 {
			parent[d.name] = byID[d.parent].name
			if d.total > byID[d.parent].total {
				t.Errorf("%s lasted longer than its parent", d.name)
			}
		}
	}
	want := map[string]string{"a": "root", "b": "root", "c": "b"}
	for k, v := range want {
		if parent[k] != v {
			t.Errorf("parent of %s = %q, want %q", k, parent[k], v)
		}
	}
	if _, ok := parent["root"]; ok || sp.last().name != "root" {
		t.Errorf("root span has a parent or did not finish last")
	}
	var out strings.Builder
	if err := sp.write(&out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("wrote %d span lines, want 4", len(lines))
	}
	for _, l := range lines {
		var rec struct {
			ID, Parent int
			Name       string
		}
		if err := json.Unmarshal([]byte(l), &rec); err != nil {
			t.Fatalf("span line %q: %v", l, err)
		}
	}
}

func TestSplitPointsDeduplicated(t *testing.T) {
	want := []point{{12, 0.25}, {13, 0.25}, {14, 0.25}, {14, 0.5}, {14, 0.125}}
	got := splitPoints()
	if len(got) != len(want) {
		t.Fatalf("splitPoints = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("splitPoints = %v, want %v", got, want)
		}
	}
}
