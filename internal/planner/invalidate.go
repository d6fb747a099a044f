package planner

// Dependency-scoped partial invalidation. Every memoized node result records
// a footprint of the external state it depends on — the engines of its
// library matches, the materialized operators it estimated, the abstract
// operator it matched against the library, and the structural signatures of
// every derived table entry it read while being keyed (the DP parent links).
// A typed invalidation event (an engine availability change, a profiler
// retrain of one target, a library add/remove) scans the cached footprints
// once and evicts only the footprint-hit entries plus everything reachable
// from them downstream through the dependents index; untouched subtrees stay
// warm and insert-replay exactly as before. Events are rare next to node
// evaluations, so the scan is paid per event and an evaluation registers
// nothing but its parent links.
//
// Wholesale flush (flushLocked) remains the fallback for untyped changes:
// a Config.Epoch movement, a library generation delta not explained by
// change-listener events, an untyped ("") event, or the cache-size bound.
//
// Correctness rests on two mechanisms. First, the per-engine availability
// fingerprint is re-probed at every build boundary, so availability changes
// no counter records (a circuit breaker re-opening on virtual-time cooldown)
// evict the affected nodes even without a typed event. Second, a node's key
// digests its input fronts, so once an upstream node re-evaluates
// differently, every downstream key changes and misses; the eager downstream
// eviction here additionally keeps the cache free of unreachable stale
// results so the size bound measures live entries.

import (
	"slices"
	"sort"

	"github.com/asap-project/ires/internal/operator"
)

// footprint records the external dependencies of one memoized node result.
type footprint struct {
	// abstract is the workflow operator the node matched against the
	// library; library changes re-match it to detect candidate-set drift.
	abstract *operator.Abstract
	// matches is the full library match list the node saw, before
	// availability filtering. Their engines, available or not, are the
	// engines the node depends on — an unavailable engine coming back
	// changes the candidate set just as an available one going down does.
	matches []*operator.Materialized
	// estOps lists the materialized operator names whose estimates (and
	// provisioned resources) the evaluation consumed.
	estOps []string
	// inSigs lists the structural signatures of every derived table entry
	// read while keying the node — the DP parent links the eviction walks.
	// Leaves and seeds are left out: nothing evicts them.
	inSigs []sig
}

// touches reports whether the node depends on one of the engines or estimated
// one of the operators.
func (f *footprint) touches(engines, estOps map[string]struct{}) bool {
	if len(engines) > 0 {
		for _, mo := range f.matches {
			if _, ok := engines[mo.Engine()]; ok {
				return true
			}
		}
	}
	if len(estOps) > 0 {
		for _, op := range f.estOps {
			if _, ok := estOps[op]; ok {
				return true
			}
		}
	}
	return false
}

// pending accumulates typed invalidation events between builds. It is
// guarded by Planner.pendMu, a leaf mutex, so producers (breaker trips,
// profiler retrains, library mutations) never contend with a running build.
type pending struct {
	engines   map[string]struct{}
	estOps    map[string]struct{}
	lib       uint64 // library change-listener events seen
	wholesale bool
}

// EngineAvailability records a typed invalidation event: the named engine's
// availability changed (or may have changed). The next build evicts only the
// node results whose candidate set touches that engine. An empty name is an
// untyped change and forces a wholesale flush.
func (p *Planner) EngineAvailability(engine string) {
	p.pendMu.Lock()
	defer p.pendMu.Unlock()
	if engine == "" {
		p.pend.wholesale = true
		return
	}
	if p.pend.engines == nil {
		p.pend.engines = make(map[string]struct{})
	}
	p.pend.engines[engine] = struct{}{}
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

// probeAvail renders one engine's availability bit.
func (p *Planner) probeAvail(engine string) byte {
	if p.cfg.EngineAvailable == nil || p.cfg.EngineAvailable(engine) {
		return '1'
	}
	return '0'
}

// refreshEnginesLocked re-derives the sorted library engine list and carries
// over the known availability bits whenever the library generation moved.
// Steady-state builds reuse the cached list, so the per-build validity check
// allocates nothing.
func (p *Planner) refreshEnginesLocked(libGen uint64) {
	c := &p.cache
	if c.enginesInit && c.enginesGen == libGen {
		return
	}
	engines := p.cfg.Library.Engines()
	prev := make([]byte, len(engines))
	for i, e := range engines {
		j := sort.SearchStrings(c.engines, e)
		if c.enginesInit && j < len(c.engines) && c.engines[j] == e && j < len(c.availPrev) {
			prev[i] = c.availPrev[j]
		} else {
			prev[i] = p.probeAvail(e)
		}
	}
	c.engines, c.availPrev = engines, prev
	c.enginesGen, c.enginesInit = libGen, true
}

// availDiffLocked re-probes EngineAvailable for every library engine,
// reports each engine whose availability flipped since the last build, and
// updates the stored fingerprint in place. This catches availability changes
// no typed event announces — e.g. a circuit breaker re-opening on
// virtual-time cooldown — without allocating in the steady state.
func (p *Planner) availDiffLocked(flipped func(engine string)) int {
	if p.cfg.EngineAvailable == nil {
		return 0
	}
	c := &p.cache
	flips := 0
	for i, e := range c.engines {
		if bit := p.probeAvail(e); bit != c.availPrev[i] {
			c.availPrev[i] = bit
			flipped(e)
			flips++
		}
	}
	return flips
}

// ensureCacheValidLocked runs (with p.mu held) at the start of every build.
// It drains the pending typed events and evicts exactly the footprint-hit
// node results plus everything reachable from them through the DP parent
// links; untouched subtrees stay warm. The wholesale flush fallback covers
// untyped changes (see the file comment). Evictions never happen mid-build,
// so one build never mixes entry generations.
func (p *Planner) ensureCacheValidLocked() {
	pend := p.drainPending()
	libGen := p.cfg.Library.Gen()
	var epoch uint64
	if p.cfg.Epoch != nil {
		epoch = p.cfg.Epoch()
	}

	if !p.cache.init {
		p.cache.init = true
		p.flushLocked()
		p.cache.epoch = 0 // the initial allocation is not an invalidation
		p.cache.validity = cacheValidity{epoch: epoch, libGen: libGen}
		p.refreshEnginesLocked(libGen)
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
		p.cache.enginesInit = false
		p.refreshEnginesLocked(libGen)
		return
	}

	// The footprint-hit node keys (twice does no harm) seed the eviction
	// stack, p.evict.
	events := len(pend.engines) + len(pend.estOps)
	if libDelta != 0 {
		events++
		for key, res := range p.cache.nodes {
			if !sameMatches(p.cfg.Library.FindMaterialized(res.foot.abstract), res.foot.matches) {
				p.evict = append(p.evict, key)
			}
		}
		p.cache.validity.libGen = libGen
		p.refreshEnginesLocked(libGen)
	}
	engines := pend.engines
	events += p.availDiffLocked(func(e string) {
		if engines == nil {
			engines = make(map[string]struct{})
		}
		engines[e] = struct{}{}
	})
	if events == 0 {
		return
	}
	if len(engines)+len(pend.estOps) > 0 {
		for key, res := range p.cache.nodes {
			if res.foot.touches(engines, pend.estOps) {
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
