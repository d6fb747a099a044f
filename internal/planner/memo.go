package planner

// Incremental planning: the DP over the abstract workflow is memoized at
// operator-node granularity. For every operator node the planner hashes what
// the node computes — its match set (abstract description and every match's
// name and definition), the availability of those matches' engines, the
// structural signatures of its input rows and the pre-insert state of its
// output rows, inputs and outputs in position order — and caches the output
// rows its evaluation left, with the per-node DP statistics. A hit installs
// them as they are, a bit-for-bit cold table, so a warm build emits
// byte-identical plans and trace events. Cached rows are read-only: only a
// dataset's one producer inserts into its row after the leaf and seed pass.
//
// No key names a node or a dataset. Two nodes that compute the same thing
// from the same input rows — the copies of one job in a level of a Pegasus
// DAG, or one job in two submissions — share one cached result, candidates
// and rows included, within a build and across graphs. The names a plan
// reports are bound from the graph at extraction (extract.go), never read
// from a cached result.
//
// Entry signatures are structural digests: two entries with equal signatures
// describe the same producing subplan (same materialized operator chain,
// names and definitions alike, same moves, same sizes, same accumulated
// estimates), so a signature match on every input row implies the node would
// resolve identically. A leaf — a materialized source or a replan seed — is
// digested by its tag key and sizes, a derived entry by its materialization,
// output and input resolution; neither by the dataset it sits in.
//
// A node's key also folds in what the library and the engines make of it: a
// digest of its library match list, every match's name and definition in
// order, and the availability, at the build boundary, of the engines those
// matches run on. A library change or an engine flap is a key, not an
// eviction, so returning to a state already seen finds its results still
// cached. The one invalidation event is a profiler retrain (invalidate.go):
// every cached node result lists the operators it estimated, and a retrain
// evicts exactly the results that estimated the retrained operator. Nothing
// downstream is evicted: its keys digest the signatures of its input rows,
// which cover every field extraction reads. Wholesale flush remains for
// infrastructure changes (the Config.Epoch hook) and the cache-size bound.

import (
	"fmt"
	"math"
	"math/bits"
	"sort"

	"github.com/asap-project/ires/internal/metadata"
	"github.com/asap-project/ires/internal/operator"
	"github.com/asap-project/ires/internal/workflow"
)

// maxCachedNodes bounds the number of memoized node results (scalar +
// Pareto) held between builds; exceeding it clears the cache wholesale at the
// next build boundary (never mid-build, so one build never mixes entry
// generations). It is sized for the 10k-operator Pegasus stress DAGs. Every
// other cache map grows only with the entries node results hold, or with
// the distinct operator descriptions planned, so this one bound covers them.
// A variable so tests can lower it.
var maxCachedNodes = 65536

// sig is a 128-bit structural digest: two independent multiply-rotate
// streams over 64-bit words. Its values are process-internal — never traced,
// exported or persisted.
type sig struct{ a, b uint64 }

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
	altOffset64 = 0x9e3779b97f4a7c15
	altPrime64  = 0xc2b2ae3d27d4eb4f
)

type hasher struct{ a, b uint64 }

func newHasher() hasher { return hasher{fnvOffset64, altOffset64} }

// u64 folds one word into both streams. The rotation carries the
// well-mixed high bits of each product down, where the next multiply spreads
// them again.
func (h *hasher) u64(v uint64) {
	h.a = bits.RotateLeft64((h.a^v)*fnvPrime64, 29)
	h.b = bits.RotateLeft64((h.b^v)*altPrime64, 31)
}

func (h *hasher) i64(v int64)   { h.u64(uint64(v)) }
func (h *hasher) f64(v float64) { h.u64(math.Float64bits(v)) }

// str folds the length, then the bytes eight at a time (the tail zero-padded
// into one word; the length disambiguates the padding).
func (h *hasher) str(s string) {
	h.u64(uint64(len(s)))
	for ; len(s) >= 8; s = s[8:] {
		h.u64(uint64(s[0]) | uint64(s[1])<<8 | uint64(s[2])<<16 | uint64(s[3])<<24 |
			uint64(s[4])<<32 | uint64(s[5])<<40 | uint64(s[6])<<48 | uint64(s[7])<<56)
	}
	if len(s) > 0 {
		var w uint64
		for i := 0; i < len(s); i++ {
			w |= uint64(s[i]) << (8 * i)
		}
		h.u64(w)
	}
}

func (h *hasher) sig(s sig) { h.u64(s.a); h.u64(s.b) }

func (h *hasher) bool(v bool) {
	if v {
		h.u64(1)
	} else {
		h.u64(0)
	}
}

func (h *hasher) sum() sig { return sig{h.a, h.b} }

// sigKind prefixes the digests of the scalar and the Pareto table apart, so
// their entries and node results never alias in the cache or its indices.
func sigKind(pareto bool) string {
	if pareto {
		return "pareto"
	}
	return "scalar"
}

// leafSig digests a zero-cost table entry (materialized source dataset or
// replan seed) by its tag key and sizes: leaves of equal content in
// differently named datasets share one signature, and so do the node results
// that read them.
func leafSig(metaKey string, records, bytes int64, pareto bool) sig {
	h := newHasher()
	h.str("leaf")
	h.str(sigKind(pareto))
	h.str(metaKey)
	h.i64(records)
	h.i64(bytes)
	return h.sum()
}

// candidateSig digests everything extraction reads from a candidate: the
// materialization's name and definition (opSig, from its match set), the
// provisioned resources, the operator's own estimates and output sizes, and
// the full input resolution, each input by its entry's sig — not the node it
// was produced for. Equal sigs extract to identical steps up to the names the
// graph binds, so extraction deduplicates steps by it (extract.go): a
// downstream result that still reads a superseded upstream entry of equal sig
// extracts what the entry's replacement would.
func candidateSig(c *candidate, opSig sig) sig {
	h := newHasher()
	h.str("cand")
	h.sig(opSig)
	h.i64(int64(c.res.Nodes))
	h.i64(int64(c.res.CoresPerN))
	h.i64(int64(c.res.MemMBPerN))
	h.f64(c.opTime)
	h.f64(c.opMoney)
	h.i64(c.outRecords)
	h.i64(c.outBytes)
	h.u64(uint64(len(c.inputs)))
	for _, in := range c.inputs {
		h.sig(in.entry.sig)
		h.bool(in.moved)
		h.f64(in.moveTime)
		h.f64(in.moveCost)
	}
	return h.sum()
}

// derivedEntrySig digests a derived table entry: its candidate's sig, the
// chosen output and its tag key. The entry's accumulated estimates follow
// from the candidate, so a redefined operator's entries never alias its old
// ones, nor does a retrained operator's entry whose resources or estimates
// moved, nor the node results downstream that read them.
func derivedEntrySig(c *candidate, outIndex int, metaKey string, pareto bool) sig {
	h := newHasher()
	h.str("op")
	h.str(sigKind(pareto))
	h.sig(c.sig)
	h.u64(uint64(outIndex))
	h.str(metaKey)
	return h.sum()
}

// rowSig digests one table row. An entry's sig already digests its tag key,
// so the key is not hashed again.
func rowSig(h *hasher, row []*tagEntry) {
	h.u64(uint64(len(row)))
	for _, e := range row {
		h.sig(e.sig)
	}
}

// matchSet is one abstract operator's library matches at one library
// generation, with the index of each match's engine in planCache.engines
// (-1 for an engine the build boundary did not see) and the digest of each
// match's name and definition (opSigs). sig digests the description and
// every opSig, in order: two generations that match a description alike
// give it the same sig.
type matchSet struct {
	gen     uint64
	matches []*operator.Materialized
	engines []int
	opSigs  []sig
	sig     sig
}

// matchSetLocked returns the node's match set for the build's library
// generation, so neither a hit nor a miss calls FindMaterialized once an
// operator of that description has been matched. It is keyed by the
// description, not the operator: every submission parses a fresh graph.
func (p *Planner) matchSetLocked(a *operator.Abstract) *matchSet {
	c := &p.cache
	def := a.Definition()
	if ms, ok := c.matchSets[def]; ok && ms.gen == c.validity.libGen {
		return ms
	}
	all := p.cfg.Library.FindMaterialized(a)
	ms := &matchSet{gen: c.validity.libGen, matches: all, engines: make([]int, len(all)), opSigs: make([]sig, len(all))}
	h := newHasher()
	h.str(def)
	h.u64(uint64(len(all)))
	for i, mo := range all {
		j := sort.SearchStrings(c.engines, mo.Engine())
		if j == len(c.engines) || c.engines[j] != mo.Engine() {
			j = -1
		}
		ms.engines[i] = j
		oh := newHasher()
		oh.str(mo.Name)
		oh.str(mo.Definition())
		ms.opSigs[i] = oh.sum()
		h.sig(ms.opSigs[i])
	}
	ms.sig = h.sum()
	c.matchSets[def] = ms
	return ms
}

// usable reports whether the build's availability snapshot admits the
// engine at index i of planCache.engines.
func (c *planCache) usable(i int) bool { return i >= 0 && c.avail[i] }

// nodeKey digests what an operator node computes: its match set's sig, the
// snapshot availability of its matches' engines, the rows of every input and
// the pre-insert state of every output, in position order. It hashes no node
// or dataset name, so nodes of one shape share a key. Must be called with
// p.mu held.
func (p *Planner) nodeKey(o *workflow.Node, ms *matchSet, dp table, pareto bool) sig {
	h := newHasher()
	h.str("node")
	h.str(sigKind(pareto))
	h.sig(ms.sig)
	h.u64(uint64(len(ms.engines)))
	for _, e := range ms.engines {
		h.bool(p.cache.usable(e))
	}
	h.u64(uint64(len(o.Inputs)))
	for _, in := range o.Inputs {
		rowSig(&h, dp[in.Pos()])
	}
	h.u64(uint64(len(o.Outputs)))
	for _, out := range o.Outputs {
		rowSig(&h, dp[out.Pos()])
	}
	return h.sum()
}

// nodeResult is the memoized outcome of evaluating one operator node: the
// row its inserts left in each output (rows[i] is Outputs[i]'s), their
// statistics (no cache counts), and the materialized operators it estimated,
// whose retrain evicts it (invalidate.go).
type nodeResult struct {
	rows [][]*tagEntry
	dpStats
	estOps []string
}

// cacheValidity holds the counters the cache was last reconciled against.
// Neither availability nor the library invalidates anything: both are memo
// keys. The library generation only dates planCache.engines and the match
// sets.
type cacheValidity struct {
	epoch  uint64 // Config.Epoch() — the infrastructure generation
	libGen uint64 // operator library generation
}

// planCache holds every memoized artefact. It is guarded by Planner.mu,
// which also serializes whole table builds so one build never observes a
// concurrent flush (mixing entry generations would break step deduplication
// during extraction).
type planCache struct {
	init     bool
	validity cacheValidity
	epoch    uint64 // completed flushes (the ires_planner_epoch gauge)

	nodes  map[sig]*nodeResult // scalar and Pareto node results (sigKind apart)
	leaves map[sig]*tagEntry
	moved  map[movedKey]*metadata.Tree // movedMetaLocked's memo

	// engines is the sorted library engine list of the library generation
	// validity.libGen, and avail the build's availability snapshot of each,
	// probed at the build boundary (snapshotAvailLocked).
	engines []string
	avail   []bool
	// matchSets caches the match set of each abstract operator description
	// (matchSetLocked).
	matchSets map[string]*matchSet
	// records holds the build record of each graph and table kind
	// (record.go). It dies with every flush and every eviction; spare keeps
	// the buffers of the records an eviction killed, until the next flush.
	records map[recordKey]*buildRecord
	spare   []*buildRecord

	hits, misses uint64 // cumulative node-level lookups
	rowsAlloc    uint64 // tagEntry rows created since construction
	partials     uint64 // profiler retrains applied as partial evictions
	evicted      uint64 // node results evicted by partial invalidation
}

// movedKey identifies one move: the source tag's key and the requirement
// subtree (owned by a library operator) it was bridged to.
type movedKey struct {
	src string
	req *metadata.Tree
}

// CacheStats is a snapshot of the planner's memoization counters.
type CacheStats struct {
	// Hits and Misses count operator-node memo lookups across
	// Plan/Replan/ParetoPlans builds.
	Hits   uint64
	Misses uint64
	// Epoch counts completed wholesale cache flushes.
	Epoch uint64
	// NodeEntries is the number of node results currently cached.
	NodeEntries int
	// RowsAllocated counts DP table rows (tagEntry) ever created;
	// a fully warm build leaves it unchanged.
	RowsAllocated uint64
	// PartialInvalidations counts profiler retrains applied as partial
	// evictions (those that did not coincide with a wholesale flush). Engine
	// flaps and library changes are memo keys and evict nothing.
	PartialInvalidations uint64
	// EvictedEntries counts node results evicted by partial invalidation:
	// those that estimated a retrained operator.
	EvictedEntries uint64
}

// CacheStats returns the planner's current memoization counters.
func (p *Planner) CacheStats() CacheStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return CacheStats{
		Hits:                 p.cache.hits,
		Misses:               p.cache.misses,
		Epoch:                p.cache.epoch,
		NodeEntries:          len(p.cache.nodes),
		RowsAllocated:        p.cache.rowsAlloc,
		PartialInvalidations: p.cache.partials,
		EvictedEntries:       p.cache.evicted,
	}
}

// FlushCache drops every memoized result and bumps the planner epoch, as an
// invalidation would. Cold-start benchmarks and tests use it; normal
// invalidation is automatic via Config.Epoch and profiler retrains.
func (p *Planner) FlushCache() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.cache.init {
		p.flushLocked()
	}
}

func (p *Planner) flushLocked() {
	p.cache.nodes = make(map[sig]*nodeResult)
	p.cache.leaves = make(map[sig]*tagEntry)
	p.cache.moved = make(map[movedKey]*metadata.Tree)
	p.cache.matchSets = make(map[string]*matchSet)
	p.cache.records = make(map[recordKey]*buildRecord)
	p.cache.spare = nil
	p.cache.epoch++
}

// recordBuildLocked folds one build's cache counters into the cumulative
// stats.
func (p *Planner) recordBuildLocked(stats *dpStats) {
	p.cache.hits += uint64(stats.cacheHits)
	p.cache.misses += uint64(stats.cacheMisses)
}

// leafLocked returns the (memoized) zero-cost entry for a materialized
// dataset with this tag and these sizes — a source dataset of the graph or a
// replan seed. Datasets stay mutable (sizes are set after construction), so
// the tag is rendered per build and cloned into a new entry.
func (p *Planner) leafLocked(meta *metadata.Tree, records, bytes int64, pareto bool) *tagEntry {
	metaKey := meta.String()
	s := leafSig(metaKey, records, bytes, pareto)
	if e, ok := p.cache.leaves[s]; ok {
		return e
	}
	e := newLeaf(meta, metaKey, records, bytes, s)
	p.cache.rowsAlloc++
	p.cache.leaves[s] = e
	return e
}

func newLeaf(meta *metadata.Tree, metaKey string, records, bytes int64, s sig) *tagEntry {
	if meta == nil {
		meta = metadata.New()
	}
	return &tagEntry{meta: meta.Clone(), metaKey: metaKey, records: records, bytes: bytes, sig: s}
}

// seedForLocked validates the done-set against the graph and returns its
// leaves by dataset name; a later entry for one dataset wins. The leaves are
// the memo's own, so replanning with unchanged intermediates allocates no new
// table rows.
func (p *Planner) seedForLocked(g *workflow.Graph, done []MaterializedIntermediate) (map[string]*tagEntry, error) {
	m := make(map[string]*tagEntry, len(done))
	for _, d := range done {
		if _, ok := g.Node(d.Dataset); !ok {
			return nil, fmt.Errorf("planner: replan: unknown dataset %q", d.Dataset)
		}
		m[d.Dataset] = p.leafLocked(d.Meta, d.Records, d.Bytes, false)
	}
	return m, nil
}
