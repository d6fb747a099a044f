package scheduler

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"
)

// drivePosHeap replays an op stream against a posHeap over pool and against a
// sorted-slice oracle, and after every op compares the two: heap invariants
// (check), size, minimum, and every pool element's position field — its index
// while a member, -1 otherwise. Each op is two bytes, (kind, element): push,
// remove (member or not), remove the root, remove the last slot, peek only.
func drivePosHeap[T comparable, O heapOrder[T]](t *testing.T, pool []T, ops []byte) {
	t.Helper()
	var (
		h       posHeap[T, O]
		order   O
		members []T // the oracle: current members, sorted by order.less
	)
	drop := func(e T) {
		for i, m := range members {
			if m == e {
				members = append(members[:i], members[i+1:]...)
				return
			}
		}
	}
	for step := 0; len(ops) >= 2; step++ {
		kind, e := ops[0]%6, pool[int(ops[1])%len(pool)]
		ops = ops[2:]
		switch kind {
		case 0, 1: // push; the heap's contract admits non-members only
			if *order.pos(e) < 0 {
				h.push(e)
				members = append(members, e)
				sort.Slice(members, func(i, j int) bool { return order.less(members[i], members[j]) })
			}
		case 2: // remove, whether or not e is a member
			h.remove(e)
			drop(e)
		case 3: // remove the root
			if top, ok := h.peek(); ok {
				h.remove(top)
				drop(top)
			}
		case 4: // remove whatever sits in the last slot
			if n := h.len(); n > 0 {
				tail := h.items[n-1]
				h.remove(tail)
				drop(tail)
			}
		}

		if err := h.check(); err != nil {
			t.Fatalf("step %d (op %d): %v", step, kind, err)
		}
		if h.len() != len(members) {
			t.Fatalf("step %d (op %d): heap holds %d, oracle %d", step, kind, h.len(), len(members))
		}
		if top, ok := h.peek(); ok != (len(members) > 0) || (ok && top != members[0]) {
			t.Fatalf("step %d (op %d): peek = %v, %v; oracle has %d members", step, kind, top, ok, len(members))
		}
		in := make(map[T]bool, len(members))
		for _, m := range members {
			in[m] = true
		}
		for i, e := range pool {
			switch p := *order.pos(e); {
			case !in[e] && p != -1:
				t.Fatalf("step %d (op %d): non-member %d has position %d", step, kind, i, p)
			case in[e] && (p < 0 || p >= h.len() || h.items[p] != e):
				t.Fatalf("step %d (op %d): member %d claims position %d", step, kind, i, p)
			}
		}
	}
}

// heapPools builds one element pool per production ordering out of key
// bytes. Keys are drawn from a few values on purpose, so ties reach every
// ordering's tie-breaks (submission time then id; name; sequence).
func heapPools(keys []byte) (runs []*Run, groups []*fairGroup) {
	for i, k := range keys {
		runs = append(runs, &Run{
			id:          fmt.Sprintf("run-%03d", i),
			seq:         i,
			deadline:    time.Duration(k%4) * time.Second, // 0 = none: sorts last
			submittedAt: time.Duration(k/4%4) * time.Second,
			fairV:       float64(k % 3),
			edfPos:      -1,
			fairPos:     -1,
		})
		groups = append(groups, &fairGroup{
			name:     fmt.Sprintf("g%02d", i),
			vruntime: float64(k%5) / 4,
			waitPos:  -1,
		})
	}
	return runs, groups
}

// drivePosHeaps runs one (keys, ops) input through all three orderings the
// scheduler uses.
func drivePosHeaps(t *testing.T, keys, ops []byte) {
	t.Helper()
	if len(keys) == 0 {
		return
	}
	if len(keys) > 64 {
		keys = keys[:64]
	}
	runs, groups := heapPools(keys)
	drivePosHeap[*Run, edfOrder](t, runs, ops)
	drivePosHeap[*Run, fairRunOrder](t, runs, ops)
	drivePosHeap[*fairGroup, groupOrder](t, groups, ops)
}

// TestPosHeapDifferential checks the one heap implementation against the
// sorted-slice oracle over seeded random op sequences.
func TestPosHeapDifferential(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		keys := make([]byte, 1+rng.Intn(40))
		ops := make([]byte, 2*(50+rng.Intn(400)))
		rng.Read(keys)
		rng.Read(ops)
		drivePosHeaps(t, keys, ops)
	}
}

// FuzzPosHeap drives the same comparison from bytes: keys seed the element
// pool, ops is the (kind, element) stream.
func FuzzPosHeap(f *testing.F) {
	f.Add([]byte{0}, []byte{0, 0, 2, 0, 2, 0})                                     // push, remove, remove a non-member
	f.Add([]byte{3, 1, 2, 0}, []byte{0, 0, 0, 1, 0, 2, 0, 3, 3, 0, 4, 0, 3, 0})    // fill, pop root, pop tail
	f.Add([]byte{5, 5, 5, 5, 5, 5}, []byte{0, 5, 0, 4, 0, 3, 0, 2, 0, 1, 0, 0})    // all keys tie
	f.Add([]byte{9, 8, 7, 6, 5, 4, 3, 2}, []byte{1, 7, 1, 6, 1, 5, 1, 4, 2, 6, 5}) // trailing odd byte
	f.Fuzz(func(t *testing.T, keys, ops []byte) {
		drivePosHeaps(t, keys, ops)
	})
}
