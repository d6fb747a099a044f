package scheduler

import "fmt"

// edfHeap is a position-tracked binary min-heap over waiting runs, ordered by
// edfRunLess: every run records its own index in edfPos, so removing an
// arbitrary member is O(log n) with no search and no side map.
//
// Frozen-key contract: whatever edfRunLess reads must not change while the
// run is a member. The heap never re-heapifies in place; the EDF key
// (deadline, submission time, id) is immutable after submission.
type edfHeap struct {
	items []*Run
}

func (h *edfHeap) len() int { return len(h.items) }

func (h *edfHeap) less(i, j int) bool { return edfRunLess(h.items[i], h.items[j]) }

// peek returns the minimal run without removing it.
func (h *edfHeap) peek() (*Run, bool) {
	if len(h.items) == 0 {
		return nil, false
	}
	return h.items[0], true
}

func (h *edfHeap) push(r *Run) {
	i := len(h.items)
	r.edfPos = i
	h.items = append(h.items, r)
	h.up(i)
}

// remove drops r from the heap; no-op when it is not a member.
func (h *edfHeap) remove(r *Run) {
	i := r.edfPos
	if i < 0 {
		return
	}
	last := len(h.items) - 1
	h.swap(i, last)
	h.items[last] = nil
	h.items = h.items[:last]
	r.edfPos = -1
	if i < last && !h.up(i) {
		h.down(i)
	}
}

func (h *edfHeap) swap(i, j int) {
	h.items[i], h.items[j] = h.items[j], h.items[i]
	h.items[i].edfPos = i
	h.items[j].edfPos = j
}

// up sifts the run at i towards the root and reports whether it moved.
func (h *edfHeap) up(i int) bool {
	moved := false
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h.swap(i, parent)
		i = parent
		moved = true
	}
	return moved
}

func (h *edfHeap) down(i int) {
	n := len(h.items)
	for {
		left := 2*i + 1
		if left >= n {
			return
		}
		least := left
		if right := left + 1; right < n && h.less(right, left) {
			least = right
		}
		if !h.less(least, i) {
			return
		}
		h.swap(i, least)
		i = least
	}
}

// check verifies the two invariants everything else rests on: each member's
// recorded position is its index, and no child orders before its parent.
func (h *edfHeap) check() error {
	for i, r := range h.items {
		if r.edfPos != i {
			return fmt.Errorf("heap position drift: element at %d claims %d", i, r.edfPos)
		}
		if i > 0 && h.less(i, (i-1)/2) {
			return fmt.Errorf("heap order violated at %d", i)
		}
	}
	return nil
}
