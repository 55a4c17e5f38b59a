package mitigate

import "math"

// Tracker is a Counter-based-Summary frequent-items tracker (the
// Space-Saving variant of the Misra-Gries family) as used per bank by
// Mithril (its "CbS algorithm") and by RRS's aggressor tracker. It
// guarantees that any row activated more than N/capacity times since the
// last reset is present in the table.
//
// Entries live in dense slots [0, n). Each slot holds one key, the row's
// count in the high 32 bits and the row in the low 32 bits, so ordering
// keys orders entries by count with ties toward the lowest row. A binary
// min-heap over the slots keeps the smallest key on top: that entry is the
// Space-Saving eviction victim and carries the table minimum, so every
// operation but Top costs O(1) or O(log capacity), after the fashion of
// Metwally et al.'s Stream-Summary.
type Tracker struct {
	cap   int
	n     int              // occupied slots
	keys  []uint64         // per slot: count<<32 | row
	heap  []int32          // min-heap of slots [0, n), ordered by key
	pos   []int32          // per slot: its index in heap
	slot  map[uint32]int32 // row -> slot
	total int64
}

// NewTracker returns a tracker with the given entry capacity (the CAM size
// of the hardware implementation).
func NewTracker(capacity int) *Tracker {
	if capacity <= 0 || capacity > math.MaxInt32 {
		panic("mitigate: tracker capacity must be positive and fit 32 bits")
	}
	return &Tracker{
		cap:  capacity,
		keys: make([]uint64, capacity),
		heap: make([]int32, capacity),
		pos:  make([]int32, capacity),
		slot: make(map[uint32]int32, capacity),
	}
}

// trackerKey packs a count and a row into a slot key.
func trackerKey(count uint64, row uint32) uint64 { return count<<32 | uint64(row) }

// trackerRow returns row as a key's low 32 bits; ok is false for a row that
// does not fit them.
func trackerRow(row int) (r uint32, ok bool) {
	return uint32(row), row >= 0 && uint64(row) <= math.MaxUint32
}

// find returns the slot holding row.
func (t *Tracker) find(row int) (int32, bool) {
	r, ok := trackerRow(row)
	if !ok {
		return 0, false
	}
	s, ok := t.slot[r]
	return s, ok
}

// Cap returns the entry capacity.
func (t *Tracker) Cap() int { return t.cap }

// Total returns the number of Observe calls since the last Reset.
func (t *Tracker) Total() int64 { return t.total }

// Len returns the number of occupied entries.
func (t *Tracker) Len() int { return t.n }

// Observe records one activation of row and returns the row's current
// estimated count.
func (t *Tracker) Observe(row int) int64 {
	t.total++
	r, ok := trackerRow(row)
	if !ok {
		panic("mitigate: tracker row out of range")
	}
	if s, ok := t.slot[r]; ok {
		if t.keys[s]>>32 == math.MaxUint32 {
			panic("mitigate: tracker count overflow")
		}
		t.keys[s] += 1 << 32
		t.down(int(t.pos[s]))
		return int64(t.keys[s] >> 32)
	}
	if t.n < t.cap {
		s := int32(t.n)
		t.n++
		t.keys[s] = trackerKey(1, r)
		t.heap[s], t.pos[s] = s, s
		t.slot[r] = s //shadowvet:ignore allocflow -- the map is pre-sized to cap and holds at most cap rows; TestTrackerZeroAllocs measures 0 allocs/op after 2M churn ops
		t.up(int(s))
		return 1
	}
	// Space-Saving replacement: the heap top is a minimum-count entry (ties
	// toward the lowest row); the new row takes over its slot with its
	// count + 1 (an overestimate, never an underestimate).
	s := t.heap[0]
	delete(t.slot, uint32(t.keys[s]))
	c := t.keys[s]>>32 + 1
	t.keys[s] = trackerKey(c, r)
	t.slot[r] = s //shadowvet:ignore allocflow -- replaces the row just deleted, so the map never exceeds its pre-sized cap; TestTrackerZeroAllocs measures 0 allocs/op after 2M churn ops
	t.down(0)
	return int64(c)
}

// Count returns the estimated count of a row (0 if untracked).
func (t *Tracker) Count(row int) int64 {
	s, ok := t.find(row)
	if !ok {
		return 0
	}
	return int64(t.keys[s] >> 32)
}

// Top returns the row with the highest estimated count, or ok=false when the
// table is empty. Ties break toward the lowest row. It scans every entry:
// Mithril calls it once per RFM.
func (t *Tracker) Top() (row int, count int64, ok bool) {
	if t.n == 0 {
		return 0, 0, false
	}
	best := t.keys[0]
	for _, k := range t.keys[1:t.n] {
		if k>>32 > best>>32 || (k>>32 == best>>32 && uint32(k) < uint32(best)) {
			best = k
		}
	}
	return int(uint32(best)), int64(best >> 32), true
}

// Mitigated informs the tracker that row received a mitigating action:
// per Mithril, its counter drops to the current table minimum so it must
// re-earn its position before being mitigated again.
func (t *Tracker) Mitigated(row int) {
	if t.n > 0 {
		t.setCount(row, t.keys[t.heap[0]]>>32)
	}
}

// ResetRow zeroes a row's counter in place (Graphene restarts a mitigated
// row's count; unlike Mitigated, the entry does not inherit the table
// minimum).
func (t *Tracker) ResetRow(row int) { t.setCount(row, 0) }

// setCount sets a tracked row's count to c, which must not exceed its
// current count: the key can only sift up.
func (t *Tracker) setCount(row int, c uint64) {
	s, ok := t.find(row)
	if !ok {
		return
	}
	t.keys[s] = trackerKey(c, uint32(row))
	t.up(int(t.pos[s]))
}

// Remove drops a row from the table (RRS removes a row after swapping it).
func (t *Tracker) Remove(row int) {
	s, ok := t.find(row)
	if !ok {
		return
	}
	delete(t.slot, uint32(row))
	// Unlink s from the heap: the last heap entry fills its position.
	t.n--
	i, last := int(t.pos[s]), t.n
	if i != last {
		moved := t.heap[last]
		t.heap[i], t.pos[moved] = moved, int32(i)
		t.up(i)
		t.down(int(t.pos[moved]))
	}
	// Keep the slots dense: the last slot moves into the hole.
	if m := int32(t.n); s != m {
		t.keys[s] = t.keys[m]
		t.pos[s] = t.pos[m]
		t.heap[t.pos[s]] = s
		t.slot[uint32(t.keys[s])] = s //shadowvet:ignore allocflow -- overwrites a present row's slot, so the map never grows; TestTrackerZeroAllocs measures 0 allocs/op for Remove
	}
}

// Reset clears the table (refresh-window boundary). The map keeps its
// pre-sized storage, so a reset never allocates.
func (t *Tracker) Reset() {
	clear(t.slot)
	t.n = 0
	t.total = 0
}

// less orders heap positions i and j by their slots' keys.
func (t *Tracker) less(i, j int) bool { return t.keys[t.heap[i]] < t.keys[t.heap[j]] }

// swap exchanges heap positions i and j.
func (t *Tracker) swap(i, j int) {
	h := t.heap
	h[i], h[j] = h[j], h[i]
	t.pos[h[i]], t.pos[h[j]] = int32(i), int32(j)
}

// up sifts heap position i toward the root.
func (t *Tracker) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !t.less(i, p) {
			return
		}
		t.swap(i, p)
		i = p
	}
}

// down sifts heap position i toward the leaves.
func (t *Tracker) down(i int) {
	for {
		c := 2*i + 1
		if c >= t.n {
			return
		}
		if r := c + 1; r < t.n && t.less(r, c) {
			c = r
		}
		if !t.less(c, i) {
			return
		}
		t.swap(i, c)
		i = c
	}
}
