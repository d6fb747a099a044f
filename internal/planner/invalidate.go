package planner

// Retrain-scoped invalidation. Every memoized node result lists the
// materialized operators it estimated (nodeResult.estOps). A profiler retrain
// of one operator is the one invalidation event: the next build scans the
// cached results once and evicts exactly those that estimated a retrained
// operator. Retrains are rare next to node evaluations, so the scan is paid
// per event and an evaluation registers nothing.
//
// Nothing downstream is evicted: a node's key digests the signatures of the
// entries in its input rows, and an entry's signature covers every field
// extraction reads from it (memo.go). A re-evaluated upstream node whose
// entries keep their signatures leaves its consumers' keys, and what they
// extract, unchanged; one whose entries move changes those keys, so its
// consumers miss. A downstream result left pointing at a superseded upstream
// entry extracts what the entry's replacement would.
//
// Engine availability and the operator library evict nothing: both are part
// of the key. Each build boundary probes every library engine once
// (snapshotAvailLocked), and a node's key folds in the snapshot bits of its
// own matches' engines and a digest of its match list, definitions included
// (memo.go). A flip or a library change that alters a node's matches misses
// that node, and downstream of it the nodes whose input rows changed; a
// return to a state already seen hits the results still cached. The
// cache-size bound keeps what the states seen and the results superseded add
// up to in check.
//
// Wholesale flush (flushLocked) remains for infrastructure changes (a
// Config.Epoch movement) and for the cache-size bound. A flush, and a
// retrain that evicts anything, also drops every build record (record.go).

// estimated reports whether the node estimated one of the operators.
func (r *nodeResult) estimated(ops map[string]struct{}) bool {
	for _, op := range r.estOps {
		if _, ok := ops[op]; ok {
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
// It drains the pending retrains and evicts, in one scan, exactly the node
// results that estimated a retrained operator. A moved library generation
// re-derives the engine list and evicts nothing (see the file comment). It
// then takes the build's availability snapshot. Evictions never happen
// mid-build, so one build never mixes entry generations.
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
		evicted := c.evicted
		for key, res := range c.nodes {
			if res.estimated(estOps) {
				delete(c.nodes, key)
				c.evicted++
			}
		}
		if c.evicted != evicted {
			c.dropRecords()
		}
		c.partials += uint64(len(estOps))
	}
	c.validity = cacheValidity{epoch: epoch, libGen: libGen}
}
