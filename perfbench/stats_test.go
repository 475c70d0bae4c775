package main

import (
	"errors"
	"math"
	"testing"
	"time"
)

func TestTailQuantileRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0.5}, {50, 0.5}, {99, 0.5}, // p90 leaves 9 beyond
		{100, 0.9}, {199, 0.9}, // p95 leaves 9 beyond
		{200, 0.95}, {999, 0.95}, // p99 leaves 9 beyond
		{1000, 0.99}, {9999, 0.99}, // p99.9 leaves 9 beyond
		{10000, 0.999},
	} {
		if got := tailQuantile(c.n); got != c.want {
			t.Errorf("tailQuantile(%d) = %v, want %v", c.n, got, c.want)
		}
		if q := tailQuantile(c.n); q > 0.5 && beyond(c.n, q) < 10 {
			t.Errorf("n=%d: p%v has %d samples beyond it", c.n, q*100, beyond(c.n, q))
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for _, c := range []struct{ q, want float64 }{{0.5, 5}, {0.9, 9}, {0.99, 10}, {0.1, 1}} {
		if got := percentile(xs, c.q); got != c.want {
			t.Errorf("percentile(q=%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile([]float64{1, math.Inf(1)}, 0.9); !math.IsInf(got, 1) {
		t.Errorf("a failed op must count as missing the tail limit, got %v", got)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile(nil) = %v", got)
	}
}

// TestSummaryTails checks that a class-scoped tail is taken over that
// class's ops alone, a failed one among them counting as +Inf, and
// that patches have no first-mapping time.
func TestSummaryTails(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	win := window{start: t0, end: at(100), ops: []opStat{
		{kind: "docx", class: "read", due: t0, first: at(8), done: at(8)},
		{kind: "docx", class: "read", due: t0, first: at(9), done: at(9), err: errors.New("wrong answer")},
		{kind: "patch", class: "append", due: t0, first: at(1), done: at(1)},
		{kind: "patch", class: "splice", due: t0, first: at(2), done: at(2)},
	}}
	s := summarize(win)
	op, ttfm := s.tails("read")
	if len(op) != 2 || op[0] != 8 || !math.IsInf(op[1], 1) || len(ttfm) != 2 {
		t.Errorf("tails(read) = %v, %v", op, ttfm)
	}
	if op, ttfm := s.tails(""); len(op) != 4 || len(ttfm) != 2 {
		t.Errorf("tails(\"\") = %v, %v; want every op, and extraction ops for ttfm", op, ttfm)
	}
	if op, ttfm := s.tails("append"); len(op) != 1 || len(ttfm) != 0 {
		t.Errorf("tails(append) = %v, %v", op, ttfm)
	}
}

func TestSelfTimeUnion(t *testing.T) {
	parent := spanRec{Start: 0, End: 100}
	for _, c := range []struct {
		name     string
		children []spanRec
		want     int64
	}{
		{"no children", nil, 100},
		{"disjoint", []spanRec{{Start: 10, End: 20}, {Start: 50, End: 70}}, 70},
		{"overlapping counted once", []spanRec{{Start: 10, End: 40}, {Start: 30, End: 60}}, 50},
		{"nested", []spanRec{{Start: 10, End: 90}, {Start: 20, End: 30}}, 20},
		{"clipped to the parent", []spanRec{{Start: -50, End: 10}, {Start: 95, End: 200}}, 85},
		{"outside the parent", []spanRec{{Start: 150, End: 200}}, 100},
		{"touching", []spanRec{{Start: 10, End: 20}, {Start: 20, End: 30}}, 80},
	} {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: self time %d, want %d", c.name, got, c.want)
		}
	}
}

func TestAnalyzeSplitsLayers(t *testing.T) {
	// One op scattered to two shards; the slower attempt sets the path.
	spans := []spanRec{
		{ID: 1, Op: 1, Name: "op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Op: 1, Name: "gate:POST", Start: 5, End: 95},
		{ID: 3, Parent: 2, Op: 1, Name: "attempt", Start: 10, End: 50},
		{ID: 4, Parent: 2, Op: 1, Name: "attempt", Start: 10, End: 90},
		{ID: 5, Parent: 3, Op: 1, Name: "shard:POST", Start: 12, End: 48, Bytes: 10},
		{ID: 6, Parent: 4, Op: 1, Name: "shard:POST", Start: 15, End: 85, Bytes: 20},
		{ID: 7, Parent: 6, Op: 1, Name: "stage:batch", Start: 20, End: 80},
		{ID: 8, Parent: 0, Op: 9, Name: "op", Start: 0, End: 5}, // not selected
	}
	lt := analyze(spans, map[int64]bool{1: true})
	if lt.ops != 1 || lt.attempts != 2 || lt.respBytes != 30 {
		t.Fatalf("ops=%d attempts=%d bytes=%d", lt.ops, lt.attempts, lt.respBytes)
	}
	if lt.opSelf[0] != 0.010 || lt.gateSelf[0] != 0.010 {
		t.Errorf("op self %v µs, gate self %v µs", lt.opSelf, lt.gateSelf)
	}
	if lt.critWait[0] != 0.010 || lt.critShardSelf[0] != 0.010 || lt.critStage[0] != 0.060 {
		t.Errorf("critical path wait %v shard %v stage %v", lt.critWait, lt.critShardSelf, lt.critStage)
	}
}
