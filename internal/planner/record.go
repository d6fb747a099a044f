package planner

import (
	"fmt"
	"slices"

	"github.com/asap-project/ires/internal/metadata"
	"github.com/asap-project/ires/internal/workflow"
)

// Build records. A table build is a function of what it reads: the graph's
// structure and target, the leaf of every materialized dataset, the
// availability snapshot, the library generation (through the match sets)
// and the memo's node results. When all of these are what the last build of
// the same graph read, the build would install the same cached rows in the
// same order and count the same statistics, so its target row is the last
// build's. The planner keeps, per graph identity and table kind, a record of
// that build — what it read, its target row, the names it handed the
// Prefitter and its statistics — and a build that finds its record valid
// installs the target row without a per-node match set, key or memo lookup.
//
// A record is valid when, against the last build of its graph:
//   - the graph's structure version and target are the same;
//   - the leaf pass made the same leaves, compared by pointer, in the same
//     datasets (leaves are memoized by tag key and sizes, so a dataset whose
//     description changed gets another leaf);
//   - the availability snapshot and the library generation are the same;
//   - the memo has not been flushed, nor a node result evicted, since.
//
// The last condition is kept by letting records die: a flush (an epoch
// movement, the size bound, FlushCache) and a retrain that evicts anything
// drop every record. A retrain that evicts nothing leaves every node result,
// and so every record, as it was.
//
// A record is served exactly as an all-hit build: the Prefitter is handed the
// same names, the trace events carry the same fields, and the cache counts
// one hit per operator node. A seeded Replan neither reads nor writes the
// record: its seeds are not leaves of the graph.

// maxRecords bounds the records held at once; a new record that would pass
// it drops them all first. Run workloads plan many one-shot graphs, whose
// records would otherwise pile up between retrains. It also bounds the
// dead records kept for reuse.
const maxRecords = 256

// recordKey names a record: a graph identity (workflow.Graph.ID) and the
// table kind.
type recordKey struct {
	graph  uint64
	pareto bool
}

// leafRef is one leaf of the leaf pass: the entry installed in the row of
// the dataset at position pos.
type leafRef struct {
	pos int
	e   *tagEntry
}

// buildRecord is what the last build of one graph read and made. It is
// rewritten in place by the next build of the graph that misses it.
type buildRecord struct {
	ver    uint64 // workflow.Graph.Version
	target string
	libGen uint64
	avail  []bool
	leaves []leafRef
	row    []*tagEntry // the target's row, read-only like every cached row
	prefit []string
	stats  dpStats // cacheHits is every operator node, cacheMisses 0
}

// leavesLocked runs the leaf pass of a build (line 5-10 of Alg. 1): a seed
// for every seeded dataset, else the memoized leaf of every materialized
// one, in order. Source datasets are materialized, as ValidatedOrder checked.
// A declared size no int64 holds fails the build with ErrNoPlan. The list is
// the planner's scratch, valid until the next build. prev is the leaf list of
// the graph's last build: a dataset whose leaf there, at the same place in
// the list, has an equal tree and equal sizes reuses it without rendering its
// tree.
func (p *Planner) leavesLocked(order []*workflow.Node, seed map[string]*tagEntry, prev []leafRef, pareto bool) ([]leafRef, error) {
	leaves := p.leaves[:0]
	for _, d := range order {
		if d.Kind != workflow.DatasetNode {
			continue
		}
		var e *tagEntry
		if len(seed) > 0 {
			e = seed[d.Name]
		}
		if e == nil && (len(d.Inputs) == 0 || d.Dataset.IsMaterialized()) {
			records, bytes, err := d.Dataset.Size()
			if err != nil {
				clear(leaves) // the scratch must not keep entries alive
				return nil, fmt.Errorf("%w: %w", ErrNoPlan, err)
			}
			meta := d.Dataset.Constraints()
			if i := len(leaves); i < len(prev) && prev[i].pos == d.Pos() && p.sameLeafLocked(prev[i].e, meta, records, bytes) {
				e = prev[i].e
			} else {
				e = p.leafLocked(meta, records, bytes, pareto)
			}
		}
		if e != nil {
			leaves = append(leaves, leafRef{d.Pos(), e})
		}
	}
	p.leaves = leaves
	return leaves, nil
}

// sameLeafLocked reports whether e is the memo's leaf for a dataset with this
// tree and these sizes, as leafLocked would find it, for a leaf of the same
// kind: an equal tree renders to the same key.
func (p *Planner) sameLeafLocked(e *tagEntry, meta *metadata.Tree, records, bytes int64) bool {
	return e != nil && e.records == records && e.bytes == bytes && p.cache.leaves[e.sig] == e && e.meta.Equal(meta)
}

// targetRowLocked returns the row of g's target and the build's statistics:
// the record's when it is valid, else those of a table build, which then
// rewrites the record. Both are read-only and valid until the next build.
// A leaf pass error fails the build. Must be called with p.mu held, after
// ensureCacheValidLocked.
func (p *Planner) targetRowLocked(g *workflow.Graph, order []*workflow.Node, seed map[string]*tagEntry, pareto bool) ([]*tagEntry, *dpStats, error) {
	c := &p.cache
	key := recordKey{g.ID(), pareto}
	rec := c.records[key]
	var prev []leafRef
	if rec != nil && len(seed) == 0 {
		prev = rec.leaves
	}
	leaves, err := p.leavesLocked(order, seed, prev, pareto)
	if err != nil {
		return nil, nil, err
	}
	defer clear(leaves) // the scratch must not keep entries alive
	if len(seed) == 0 && rec != nil && rec.ver == g.Version() && rec.target == g.Target &&
		rec.libGen == c.validity.libGen && slices.Equal(rec.avail, c.avail) && slices.Equal(rec.leaves, leaves) {
		if pf, ok := p.cfg.Estimator.(Prefitter); ok {
			pf.Prefit(rec.prefit)
		}
		return rec.row, &rec.stats, nil
	}
	dp, stats := p.buildTable(order, leaves, pareto)
	target, _ := g.Node(g.Target)
	row := dp[target.Pos()]
	clear(dp) // the table must not keep entries alive either
	if len(seed) > 0 {
		return row, stats, nil
	}
	if rec == nil {
		if len(c.records) >= maxRecords {
			c.dropRecords()
		}
		if n := len(c.spare); n > 0 {
			rec, c.spare = c.spare[n-1], c.spare[:n-1]
		} else {
			rec = new(buildRecord)
		}
		c.records[key] = rec
	}
	rec.ver, rec.target, rec.libGen, rec.row = g.Version(), g.Target, c.validity.libGen, row
	rec.avail = append(rec.avail[:0], c.avail...)
	rec.leaves = append(rec.leaves[:0], leaves...)
	rec.prefit = append(rec.prefit[:0], p.prefit...)
	rec.stats = *stats
	rec.stats.cacheHits, rec.stats.cacheMisses = stats.cacheHits+stats.cacheMisses, 0
	return row, stats, nil
}

// dropRecords kills every record on an eviction or at the bound. Their
// buffers are kept, emptied of every entry, for the records written next:
// most graphs of a run workload are planned once, between retrains that
// evict, and a record per graph would otherwise be allocations per graph. A
// flush drops the records and the kept buffers alike, so the buffers sized
// for large graphs do not outlive it.
func (c *planCache) dropRecords() {
	for _, rec := range c.records {
		if len(c.spare) < maxRecords {
			clear(rec.leaves)
			clear(rec.prefit)
			rec.row = nil
			c.spare = append(c.spare, rec)
		}
	}
	clear(c.records)
}
