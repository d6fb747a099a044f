package planner

// Dependency-scoped partial invalidation. Every memoized node result records
// a footprint of the external state it depends on: the materialized
// operators it estimated, and the structural signatures of every derived
// table entry it read while being keyed (the DP parent links). A profiler
// retrain of one operator is the one invalidation event: the next build
// scans the cached footprints once and evicts only the footprint-hit entries
// plus everything reachable from them downstream through the dependents
// index; untouched subtrees stay warm and insert-replay exactly as before.
// Retrains are rare next to node evaluations, so the scan is paid per event
// and an evaluation registers nothing but its parent links.
//
// Engine availability and the operator library evict nothing: both are part
// of the key. Each build boundary probes every library engine once
// (snapshotAvailLocked), and a node's key folds in the snapshot bits of its
// own matches' engines and a digest of its match list, definitions included
// (memo.go). A flip or a library change that alters a node's matches misses
// that node, and downstream of it the nodes whose input rows changed; a
// return to a state already seen hits the results still cached. The
// cache-size bound keeps what the states seen add up to in check.
//
// Wholesale flush (flushLocked) remains for infrastructure changes (a
// Config.Epoch movement) and for the cache-size bound.
//
// A node's key also digests its input fronts, so once an upstream node
// re-evaluates differently, every downstream key changes and misses; the
// eager downstream eviction here additionally keeps the cache free of
// unreachable stale results so the size bound measures live entries.

import "slices"

// footprint records the external dependencies of one memoized node result.
type footprint struct {
	// estOps lists the materialized operator names whose estimates (and
	// provisioned resources) the evaluation consumed.
	estOps []string
	// inSigs lists the structural signatures of every derived table entry
	// read while keying the node — the DP parent links the eviction walks.
	// Leaves and seeds are left out: nothing evicts them.
	inSigs []sig
}

// touches reports whether the node estimated one of the operators.
func (f *footprint) touches(estOps map[string]struct{}) bool {
	for _, op := range f.estOps {
		if _, ok := estOps[op]; ok {
			return true
		}
	}
	return false
}

// ProfilerRetrain records a typed invalidation event: the prediction models
// for the named materialized operator changed. The next build evicts only
// the node results that estimated that operator.
func (p *Planner) ProfilerRetrain(opName string) {
	p.pendMu.Lock()
	defer p.pendMu.Unlock()
	if p.pend == nil {
		p.pend = make(map[string]struct{})
	}
	p.pend[opName] = struct{}{}
}

// drainPending atomically takes and clears the pending retrained operators.
func (p *Planner) drainPending() map[string]struct{} {
	p.pendMu.Lock()
	defer p.pendMu.Unlock()
	out := p.pend
	p.pend = nil
	return out
}

// refreshEnginesLocked re-derives the sorted library engine list the
// availability snapshot is indexed by. It runs at the first build boundary
// and at every one whose library generation moved; the match sets of the old
// generation refresh on their next lookup.
func (p *Planner) refreshEnginesLocked() {
	c := &p.cache
	c.engines = p.cfg.Library.Engines()
	c.avail = make([]bool, len(c.engines))
}

// snapshotAvailLocked probes EngineAvailable once per library engine. It
// runs at every build boundary and nowhere else, so every node key and
// candidate filter of one build reads one availability state — also when a
// breaker trips or re-opens while the build runs.
func (p *Planner) snapshotAvailLocked() {
	c := &p.cache
	for i, e := range c.engines {
		c.avail[i] = p.cfg.EngineAvailable == nil || p.cfg.EngineAvailable(e)
	}
}

// ensureCacheValidLocked runs (with p.mu held) at the start of every build.
// It drains the pending retrains and evicts exactly the footprint-hit node
// results plus everything reachable from them through the DP parent links;
// untouched subtrees stay warm. A moved library generation re-derives the
// engine list and evicts nothing (see the file comment). It then takes the
// build's availability snapshot. Evictions never happen mid-build, so one
// build never mixes entry generations.
func (p *Planner) ensureCacheValidLocked() {
	estOps := p.drainPending()
	libGen := p.cfg.Library.Gen()
	var epoch uint64
	if p.cfg.Epoch != nil {
		epoch = p.cfg.Epoch()
	}
	defer p.snapshotAvailLocked()

	c := &p.cache
	if !c.init || libGen != c.validity.libGen {
		p.refreshEnginesLocked()
	}
	switch {
	case !c.init:
		c.init = true
		p.flushLocked()
		c.epoch = 0 // the initial allocation is not an invalidation
	case epoch != c.validity.epoch || len(c.nodes) > maxCachedNodes:
		p.flushLocked()
	case len(estOps) > 0:
		for key, res := range c.nodes {
			if res.foot.touches(estOps) {
				p.evict = append(p.evict, key)
			}
		}
		c.evicted += uint64(p.evictLocked())
		c.partials += uint64(len(estOps))
	}
	c.validity = cacheValidity{epoch: epoch, libGen: libGen}
}

// evictLocked removes every node result on the p.evict stack plus everything
// reachable downstream through the dependents index (nodes whose key digested
// an evicted node's output entries), detaching each from the index. It
// returns the number of node results evicted and leaves the stack empty.
func (p *Planner) evictLocked() int {
	c := &p.cache
	stack, evicted := p.evict, 0
	for len(stack) > 0 {
		k := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		res, ok := c.nodes[k]
		if !ok {
			continue // already evicted
		}
		delete(c.nodes, k)
		evicted++
		for _, rec := range res.inserts {
			stack = append(stack, c.dependents[rec.e.sig]...)
		}
		for _, s := range res.foot.inSigs {
			if b := slices.DeleteFunc(c.dependents[s], func(d sig) bool { return d == k }); len(b) > 0 {
				c.dependents[s] = b
			} else {
				delete(c.dependents, s)
			}
		}
	}
	p.evict = stack
	return evicted
}
