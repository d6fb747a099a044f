package planner

// Dependency-scoped partial invalidation. Every memoized node result records
// a footprint of the external state it depends on — the materialized
// operators it estimated, the abstract operator it matched against the
// library and the match list it saw, and the structural signatures of every
// derived table entry it read while being keyed (the DP parent links). A
// typed invalidation event (a profiler retrain of one target, a library
// add/remove) scans the cached footprints once and evicts only the
// footprint-hit entries plus everything reachable from them downstream
// through the dependents index; untouched subtrees stay warm and
// insert-replay exactly as before. Events are rare next to node evaluations,
// so the scan is paid per event and an evaluation registers nothing but its
// parent links.
//
// Engine availability evicts nothing: it is part of the key. Each build
// boundary probes every library engine once (snapshotAvailLocked), and a
// node's key folds in the snapshot bits of its own matches' engines
// (memo.go). A flip to a new state misses the nodes matching the flipped
// engine, and downstream of them the nodes whose input rows changed; a flip
// back to a state already seen hits the results still cached. The cache-size
// bound keeps what the states seen add up to in check.
//
// Wholesale flush (flushLocked) remains the fallback for untyped changes:
// a Config.Epoch movement, a library generation delta not explained by
// change-listener events, an untyped ("") event, or the cache-size bound.
//
// A node's key also digests its input fronts, so once an upstream node
// re-evaluates differently, every downstream key changes and misses; the
// eager downstream eviction here additionally keeps the cache free of
// unreachable stale results so the size bound measures live entries.

import (
	"slices"

	"github.com/asap-project/ires/internal/operator"
)

// footprint records the external dependencies of one memoized node result.
type footprint struct {
	// abstract is the workflow operator the node matched against the
	// library; library changes re-match it to detect candidate-set drift.
	abstract *operator.Abstract
	// matches is the full library match list the node saw, before
	// availability filtering; a library change that alters it evicts the
	// node.
	matches []*operator.Materialized
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

// pending accumulates typed invalidation events between builds. It is
// guarded by Planner.pendMu, a leaf mutex, so producers (profiler retrains,
// library mutations) never contend with a running build.
type pending struct {
	estOps    map[string]struct{}
	lib       uint64 // library change-listener events seen
	wholesale bool
}

// ProfilerRetrain records a typed invalidation event: the prediction models
// for the named materialized operator changed. The next build evicts only
// the node results that estimated that operator. An empty name is an untyped
// change and forces a wholesale flush.
func (p *Planner) ProfilerRetrain(opName string) {
	p.pendMu.Lock()
	defer p.pendMu.Unlock()
	if opName == "" {
		p.pend.wholesale = true
		return
	}
	if p.pend.estOps == nil {
		p.pend.estOps = make(map[string]struct{})
	}
	p.pend.estOps[opName] = struct{}{}
}

// libraryChanged is registered as a Library change listener (planner.New).
// It only counts events: the build boundary re-matches cached footprints
// against the library directly, which also catches replaced definitions that
// keep the same operator name.
func (p *Planner) libraryChanged(string) {
	p.pendMu.Lock()
	p.pend.lib++
	p.pendMu.Unlock()
}

// drainPending atomically takes and clears the pending event set.
func (p *Planner) drainPending() pending {
	p.pendMu.Lock()
	defer p.pendMu.Unlock()
	out := p.pend
	p.pend = pending{}
	return out
}

// sameMatches reports whether two library match lists hold the same
// definitions under the same names. Operators are immutable, so the same
// pointer is the same definition; a re-registered operator is compared by
// its rendering.
func sameMatches(a, b []*operator.Materialized) bool {
	return slices.EqualFunc(a, b, func(x, y *operator.Materialized) bool {
		return x == y || (x.Name == y.Name && x.Definition() == y.Definition())
	})
}

// refreshEnginesLocked re-derives the sorted library engine list the
// availability snapshot is indexed by. It runs at a build boundary whose
// library generation moved; the match sets of the old generation refresh on
// their next lookup.
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
// It drains the pending typed events and evicts exactly the footprint-hit
// node results plus everything reachable from them through the DP parent
// links; untouched subtrees stay warm. It then takes the build's
// availability snapshot, which evicts nothing (see the file comment). The
// wholesale flush fallback covers untyped changes. Evictions never happen
// mid-build, so one build never mixes entry generations.
func (p *Planner) ensureCacheValidLocked() {
	pend := p.drainPending()
	libGen := p.cfg.Library.Gen()
	var epoch uint64
	if p.cfg.Epoch != nil {
		epoch = p.cfg.Epoch()
	}
	defer p.snapshotAvailLocked()

	if !p.cache.init {
		p.cache.init = true
		p.flushLocked()
		p.cache.epoch = 0 // the initial allocation is not an invalidation
		p.cache.validity = cacheValidity{epoch: epoch, libGen: libGen}
		p.refreshEnginesLocked()
		return
	}

	// libDelta is the library movement since the last build; when the typed
	// change-listener events explain all of it, a re-match scan replaces the
	// wholesale flush.
	libDelta := libGen - p.cache.validity.libGen
	wholesale := pend.wholesale ||
		epoch != p.cache.validity.epoch ||
		(libDelta != 0 && pend.lib < libDelta) ||
		len(p.cache.nodes) > maxCachedNodes
	if wholesale {
		p.flushLocked()
		p.cache.validity = cacheValidity{epoch: epoch, libGen: libGen}
		p.refreshEnginesLocked()
		return
	}

	// The footprint-hit node keys (twice does no harm) seed the eviction
	// stack, p.evict.
	events := len(pend.estOps)
	if libDelta != 0 {
		events++
		for key, res := range p.cache.nodes {
			if !sameMatches(p.cfg.Library.FindMaterialized(res.foot.abstract), res.foot.matches) {
				p.evict = append(p.evict, key)
			}
		}
		p.cache.validity.libGen = libGen
		p.refreshEnginesLocked()
	}
	if events == 0 {
		return
	}
	if len(pend.estOps) > 0 {
		for key, res := range p.cache.nodes {
			if res.foot.touches(pend.estOps) {
				p.evict = append(p.evict, key)
			}
		}
	}
	evicted := p.evictLocked()
	p.cache.partials += uint64(events)
	p.cache.evicted += uint64(evicted)
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
