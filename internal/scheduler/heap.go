package scheduler

import "fmt"

// heapOrder tells a posHeap how to rank its elements and where each element
// keeps its heap position. Implementations are zero-size types, so an
// ordering costs a heap no storage and no closure.
type heapOrder[T any] interface {
	// less must be a strict total order over the elements of one heap.
	less(a, b T) bool
	// pos returns the element's position field: its index in the heap while
	// it is a member, -1 otherwise (elements start out at -1).
	pos(e T) *int
}

// posHeap is a position-tracked binary min-heap: every element records its
// own index, so removing an arbitrary member is O(log n) with no search and
// no side map. It is the one heap of the package — the EDF heap over waiting
// runs, each fair group's heap of waiting children and each user's heap of
// waiting runs differ only in their heapOrder.
//
// Frozen-key contract: whatever less reads must not change while the element
// is a member. The heap never re-heapifies in place; a key that has to move
// is removed first and pushed again afterwards. (EDF keys are immutable after
// submission; a fair group sits in a wait heap only while its rate is zero;
// a waiting run accrues no virtual runtime.)
type posHeap[T any, O heapOrder[T]] struct {
	items []T
}

func (h *posHeap[T, O]) len() int { return len(h.items) }

// less and pos apply the ordering: it has no state, so the zero O is all of it.
func (h *posHeap[T, O]) less(i, j int) bool {
	var order O
	return order.less(h.items[i], h.items[j])
}

func (h *posHeap[T, O]) pos(e T) *int {
	var order O
	return order.pos(e)
}

// peek returns the minimal element without removing it.
func (h *posHeap[T, O]) peek() (T, bool) {
	if len(h.items) == 0 {
		var zero T
		return zero, false
	}
	return h.items[0], true
}

func (h *posHeap[T, O]) push(e T) {
	i := len(h.items)
	*h.pos(e) = i
	h.items = append(h.items, e)
	h.up(i)
}

// remove drops e from the heap; no-op when it is not a member.
func (h *posHeap[T, O]) remove(e T) {
	i := *h.pos(e)
	if i < 0 {
		return
	}
	last := len(h.items) - 1
	h.swap(i, last)
	var zero T
	h.items[last] = zero
	h.items = h.items[:last]
	*h.pos(e) = -1
	if i < last && !h.up(i) {
		h.down(i)
	}
}

func (h *posHeap[T, O]) swap(i, j int) {
	h.items[i], h.items[j] = h.items[j], h.items[i]
	*h.pos(h.items[i]) = i
	*h.pos(h.items[j]) = j
}

// up sifts the element at i towards the root and reports whether it moved.
func (h *posHeap[T, O]) up(i int) bool {
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

func (h *posHeap[T, O]) down(i int) {
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
func (h *posHeap[T, O]) check() error {
	for i, e := range h.items {
		if p := *h.pos(e); p != i {
			return fmt.Errorf("heap position drift: element at %d claims %d", i, p)
		}
		if i > 0 && h.less(i, (i-1)/2) {
			return fmt.Errorf("heap order violated at %d", i)
		}
	}
	return nil
}
