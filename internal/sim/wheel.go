package sim

import (
	"math"
	"math/bits"
	"sort"
)

// The engine's pending-callback store is a hierarchical timer wheel: 9
// levels of 64 slots over 2^14 ns (~16 us) ticks. 64^9 = 2^54 ticks is
// more than the 2^49 an int64 of nanoseconds can hold, so every
// representable instant has a slot and there is no second store.
// Insertion and cancellation are O(1); finding the next occupied instant
// is O(occupied levels) via per-level occupancy bitmaps and a mask of
// occupied levels, instead of the O(log n) sift of the old global binary
// heap — the difference that keeps a 10k-node city sweep (hundreds of
// thousands of resident heartbeat and back-off timers) flat instead of
// logarithmic per event. Slots file int32 indices into the engine's item
// arena, so moving them costs no GC write barriers.
//
// Exactness contract: callbacks fire in precisely the old heap's order —
// ascending (at, seq), i.e. FIFO among equal instants. A level-0 slot
// spans one tick, which is coarser than a nanosecond, so slots are
// sorted by (at, seq) when drained into the ready buffer; everything
// still pending lives in strictly later ticks, so the global order is
// exact, not approximate.
const (
	// tickBits is the log2 of the tick length in nanoseconds.
	tickBits = 14
	// slotBits is the log2 of the per-level slot count.
	slotBits = 6
	// wheelLevels is the number of wheel levels: the fewest whose
	// horizon (64^9 = 2^54 ticks) covers every Time (< 2^49 ticks).
	wheelLevels = 9

	slotsPerLevel = 1 << slotBits
	slotMask      = slotsPerLevel - 1
)

// tickOf returns the wheel tick containing instant at.
func tickOf(at Time) int64 { return int64(at) >> tickBits }

// wheel is the leveled slot store. Slots hold unsorted arena indices;
// ordering happens at drain time. occ tracks non-empty slots per level
// and lvls the levels with any, so the next occupied window is found
// with bit scans, never slot or level walks.
type wheel struct {
	slots [wheelLevels][slotsPerLevel][]int32
	occ   [wheelLevels]uint64
	lvls  uint16
	// cur is the current tick: every resident item's tick is > cur
	// (items due at or before cur live in the engine's ready buffer).
	cur int64
}

// place files item i, due at at, whose tick is strictly beyond cur at
// the finest level l whose span still reaches it (distance < 64^(l+1)
// ticks). The distance is below 2^49, so l never exceeds wheelLevels-1.
func (w *wheel) place(i int32, at Time) {
	t := tickOf(at)
	l := (bits.Len64(uint64(t-w.cur)) - 1) / slotBits
	idx := (t >> (l * slotBits)) & slotMask
	w.slots[l][idx] = append(w.slots[l][idx], i)
	w.occ[l] |= 1 << idx
	w.lvls |= 1 << l
}

// drain empties slot idx of level l into buf and returns the result.
func (w *wheel) drain(l int, idx int64, buf []int32) []int32 {
	buf = append(buf, w.slots[l][idx]...)
	w.slots[l][idx] = w.slots[l][idx][:0]
	w.clear(l, idx)
	return buf
}

// clear marks slot idx of level l empty.
func (w *wheel) clear(l int, idx int64) {
	w.occ[l] &^= 1 << idx
	if w.occ[l] == 0 {
		w.lvls &^= 1 << l
	}
}

// nextWindow returns the start tick of the earliest occupied window and
// its level, or (math.MaxInt64, -1) when the wheel is empty. At level 0
// the window start is the item tick itself; at higher levels it is the
// cascade boundary where the slot must be re-filed downward.
func (w *wheel) nextWindow() (int64, int) {
	best := int64(math.MaxInt64)
	bestLvl := -1
	for lm := w.lvls; lm != 0; lm &= lm - 1 {
		l := bits.TrailingZeros16(lm)
		m := w.occ[l]
		shift := l * slotBits
		cl := (w.cur >> shift) & slotMask
		// Rotation base: the start of the level-(l+1) window containing
		// cur. Slots strictly after the level cursor belong to the
		// current rotation; slots before it wrap into the next one. The
		// cursor slot itself is ambiguous and resolved by position:
		// exactly at its window start (a coarser cascade just landed
		// there) it holds leftovers due now; strictly inside the window
		// it can only hold next-rotation wrap-arounds, because a slot's
		// current-window items are always drained the moment the cursor
		// crosses the window boundary.
		base := w.cur &^ (1<<((l+1)*slotBits) - 1)
		var start int64
		if m>>cl&1 == 1 && w.cur&(1<<shift-1) == 0 {
			start = w.cur
		} else if ahead := m &^ (1<<(cl+1) - 1); ahead != 0 {
			start = base + int64(bits.TrailingZeros64(ahead))<<shift
		} else {
			start = base + 1<<((l+1)*slotBits) + int64(bits.TrailingZeros64(m))<<shift
		}
		// <= not <: on a tie the coarsest level must win, because its
		// window contains the finer ones — cascading a finer level
		// first would move the cursor into a still-occupied coarse
		// window and strand its items.
		if start <= best {
			best, bestLvl = start, l
		}
	}
	return best, bestLvl
}

// trailingIdx returns the index of the lowest set bit of m (m != 0).
func trailingIdx(m uint64) int64 { return int64(bits.TrailingZeros64(m)) }

// sortItems orders a drained slot by (at, seq). Small slots — the
// common case — take the insertion-sort fast path; mass same-instant
// fan-ins (a 10k-node warm-up tick) fall back to the library sort.
func (e *Engine) sortItems(items []int32) {
	if len(items) <= 12 {
		for i := 1; i < len(items); i++ {
			for j := i; j > 0 && e.less(items[j], items[j-1]); j-- {
				items[j], items[j-1] = items[j-1], items[j]
			}
		}
		return
	}
	sort.Slice(items, func(i, j int) bool { return e.less(items[i], items[j]) })
}
