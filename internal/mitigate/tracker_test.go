package mitigate

import (
	"fmt"
	"testing"

	"shadow/internal/rng"
)

// refTracker is the original map-scan Space-Saving tracker, kept as the
// oracle for the heap-backed Tracker: O(capacity) per eviction, per Top and
// per Mitigated, with the same minimum-count, lowest-row eviction rule.
type refTracker struct {
	cap    int
	counts map[int]int64
	total  int64
}

func newRefTracker(capacity int) *refTracker {
	return &refTracker{cap: capacity, counts: make(map[int]int64, capacity)}
}

func (t *refTracker) Observe(row int) int64 {
	t.total++
	if c, ok := t.counts[row]; ok {
		t.counts[row] = c + 1
		return c + 1
	}
	if len(t.counts) < t.cap {
		t.counts[row] = 1
		return 1
	}
	minRow, minCount := -1, int64(1)<<62
	for r, c := range t.counts {
		if c < minCount || (c == minCount && r < minRow) {
			minRow, minCount = r, c //shadowvet:ignore determinism -- order-independent min reduction (key tie-break)
		}
	}
	delete(t.counts, minRow)
	t.counts[row] = minCount + 1
	return minCount + 1
}

func (t *refTracker) Top() (row int, count int64, ok bool) {
	best, bestC := -1, int64(-1)
	for r, c := range t.counts {
		if c > bestC || (c == bestC && r < best) {
			best, bestC = r, c //shadowvet:ignore determinism -- order-independent max reduction (key tie-break)
		}
	}
	if best < 0 {
		return 0, 0, false
	}
	return best, bestC, true
}

func (t *refTracker) Mitigated(row int) {
	if _, ok := t.counts[row]; !ok {
		return
	}
	min := int64(1) << 62
	for _, c := range t.counts {
		if c < min {
			min = c //shadowvet:ignore determinism -- pure min over values, order-independent
		}
	}
	t.counts[row] = min
}

func (t *refTracker) ResetRow(row int) {
	if _, ok := t.counts[row]; ok {
		t.counts[row] = 0
	}
}

func (t *refTracker) Remove(row int) { delete(t.counts, row) }

func (t *refTracker) Reset() {
	t.counts = make(map[int]int64, t.cap)
	t.total = 0
}

// TestTrackerMatchesReference drives the heap-backed Tracker and refTracker
// with the same seeded operation stream and requires identical observable
// state after every step: Observe's return, Top, Len, Total and the counts
// of the touched row and of one random row. Rows are drawn from a range a
// few times the capacity with a hot subset, so hits, evictions, count ties
// and the Mitigated/ResetRow/Remove/Reset paths all occur often. The
// oracle pays O(capacity) per step for Top, so the largest table runs a
// shorter stream.
func TestTrackerMatchesReference(t *testing.T) {
	for _, capacity := range []int{1, 2, 7, 64, 1024} {
		ops := 300_000
		if capacity > 64 {
			ops = 40_000
		}
		t.Run(fmt.Sprintf("cap%d", capacity), func(t *testing.T) {
			src := rng.NewSplitMix(uint64(capacity))
			got, want := NewTracker(capacity), newRefTracker(capacity)
			span := 3*capacity + 2
			for i := 0; i < ops; i++ {
				row := rng.Intn(src, span)
				if rng.Intn(src, 4) == 0 {
					row = rng.Intn(src, capacity/4+1) // hot rows
				}
				op := rng.Intn(src, 1000)
				switch {
				case op < 10:
					got.Mitigated(row)
					want.Mitigated(row)
				case op < 20:
					got.ResetRow(row)
					want.ResetRow(row)
				case op < 35:
					got.Remove(row)
					want.Remove(row)
				case op < 36 && i%8 == 0:
					got.Reset()
					want.Reset()
				default:
					if g, w := got.Observe(row), want.Observe(row); g != w {
						t.Fatalf("op %d: Observe(%d) = %d, want %d", i, row, g, w)
					}
				}
				gr, gc, gok := got.Top()
				wr, wc, wok := want.Top()
				if gr != wr || gc != wc || gok != wok {
					t.Fatalf("op %d: Top = (%d,%d,%v), want (%d,%d,%v)", i, gr, gc, gok, wr, wc, wok)
				}
				if got.Len() != len(want.counts) || got.Total() != want.total {
					t.Fatalf("op %d: Len/Total = %d/%d, want %d/%d", i, got.Len(), got.Total(), len(want.counts), want.total)
				}
				probe := rng.Intn(src, span)
				for _, r := range [2]int{row, probe} {
					if g, w := got.Count(r), want.counts[r]; g != w {
						t.Fatalf("op %d: Count(%d) = %d, want %d", i, r, g, w)
					}
				}
			}
		})
	}
}

// TestTrackerZeroAllocs is the dynamic side of the tracker's allocflow
// roots: after miss-heavy churn has filled the table and settled the row
// map's storage, Observe is allocation-free, and so is a fill followed by
// Reset (the old tracker reallocated its map on every Reset).
func TestTrackerZeroAllocs(t *testing.T) {
	const capacity = 1024
	tr := NewTracker(capacity)
	src := rng.NewSplitMix(1)
	for i := 0; i < 2_000_000; i++ {
		tr.Observe(rng.Intn(src, 8*capacity))
	}
	if tr.Len() != capacity {
		t.Fatalf("Len = %d after churn, want a full table of %d", tr.Len(), capacity)
	}
	if a := testing.AllocsPerRun(10_000, func() {
		row := rng.Intn(src, 8*capacity)
		tr.Observe(row)
		if row%16 == 0 {
			tr.Mitigated(row)
			tr.ResetRow(row)
			tr.Remove(row)
		}
	}); a != 0 {
		t.Errorf("Observe on a full table: %v allocs/op, want 0", a)
	}
	if a := testing.AllocsPerRun(20, func() {
		for r := 0; r < capacity; r++ {
			tr.Observe(r)
		}
		tr.Reset()
	}); a != 0 {
		t.Errorf("fill+Reset: %v allocs/op, want 0", a)
	}
}

// BenchmarkTracker measures Observe on a full 1024-entry table: "hit"
// draws from the rows the table holds (no evictions), "miss" from eight
// times as many (most Observes evict).
func BenchmarkTracker(b *testing.B) {
	const capacity = 1024
	for _, c := range []struct {
		name string
		rows int
	}{{"hit", capacity}, {"miss", 8 * capacity}} {
		b.Run(c.name, func(b *testing.B) {
			tr := NewTracker(capacity)
			for r := 0; r < capacity; r++ {
				tr.Observe(r)
			}
			src := rng.NewSplitMix(1)
			stream := make([]int, 1<<16)
			for i := range stream {
				stream[i] = rng.Intn(src, c.rows)
			}
			for _, r := range stream {
				tr.Observe(r)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tr.Observe(stream[i&(len(stream)-1)])
			}
		})
	}
}
