package profiler

import (
	"encoding/json"
	"fmt"
	"io"

	"github.com/asap-project/ires/internal/model"
)

// The paper's models "are stored and updated in an IReS library" that
// outlives individual workflow runs. Export/Import persist the library: the
// training buffers (profiled and observed runs) and feasibility walls are
// serialised; models are retrained on import, so persistence is independent
// of model internals.

// persistedOperator is the JSON form of one operator's model state.
type persistedOperator struct {
	Operator       string               `json:"operator"`
	Algorithm      string               `json:"algorithm"`
	Engine         string               `json:"engine"`
	Features       []string             `json:"features"`
	X              [][]float64          `json:"samples"`
	Targets        map[string][]float64 `json:"targets"`
	MinFailRecords float64              `json:"minFailRecords,omitempty"`
	// Chosen records the selected model family per target (since version
	// 2). Without it, import re-runs full CV selection, which may pick a
	// different family than the exporter was using — especially after the
	// feature set grew mid-session and old samples were zero-padded — and
	// silently change predictions across a save/load cycle.
	Chosen map[string]string `json:"chosen,omitempty"`
	// SinceReselect preserves the re-selection schedule (version 2): the
	// buffer length at the last selection is len(X) - SinceReselect.
	SinceReselect int `json:"sinceReselect,omitempty"`
}

type persistedLibrary struct {
	Version   int                 `json:"version"`
	Operators []persistedOperator `json:"operators"`
}

// persistVersion 2 adds Chosen/SinceReselect; version-1 files (no recorded
// family choices) import with full re-selection, as before.
const persistVersion = 2

// Export writes the profiler's model library as JSON.
func (p *Profiler) Export(w io.Writer) error {
	lib := persistedLibrary{Version: persistVersion}
	for _, name := range p.Operators() {
		om, _ := p.Models(name)
		om.mu.Lock()
		_ = om.fitLocked() // counted in FitErrors; chosen keeps its last value
		po := persistedOperator{
			Operator:       om.Operator,
			Algorithm:      om.Algorithm,
			Engine:         om.Engine,
			Features:       append([]string(nil), om.Features...),
			MinFailRecords: om.minFailRecords,
			Targets:        make(map[string][]float64, len(om.targets)),
			Chosen:         make(map[string]string, len(om.chosen)),
			SinceReselect:  om.sinceReselect,
		}
		for t, fam := range om.chosen {
			po.Chosen[t] = fam
		}
		po.X = make([][]float64, len(om.X))
		for i, row := range om.X {
			po.X[i] = append([]float64(nil), row...)
		}
		for t, ys := range om.targets {
			po.Targets[t] = append([]float64(nil), ys...)
		}
		om.mu.Unlock()
		lib.Operators = append(lib.Operators, po)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(lib)
}

// Import reads a persisted library, replacing any same-named operators, and
// retrains every imported model — using the persisted family choice when one
// was recorded, full cross-validated selection otherwise.
func (p *Profiler) Import(r io.Reader) error {
	var lib persistedLibrary
	if err := json.NewDecoder(r).Decode(&lib); err != nil {
		return fmt.Errorf("profiler: import: %w", err)
	}
	if lib.Version < 1 || lib.Version > persistVersion {
		return fmt.Errorf("profiler: import: unsupported version %d", lib.Version)
	}
	for _, po := range lib.Operators {
		if po.Operator == "" {
			return fmt.Errorf("profiler: import: unnamed operator")
		}
		for _, row := range po.X {
			if len(row) != len(po.Features) {
				return fmt.Errorf("profiler: import: %s: sample width %d != %d features",
					po.Operator, len(row), len(po.Features))
			}
		}
		// Files written while cost was still learned carry a cost column
		// (and its family); cost is derived now, so both are dropped.
		delete(po.Targets, TargetCost)
		for t, ys := range po.Targets {
			if len(ys) != len(po.X) {
				return fmt.Errorf("profiler: import: %s: target %s has %d values for %d samples",
					po.Operator, t, len(ys), len(po.X))
			}
		}
		p.mu.Lock()
		zoo := p.zooLocked()
		p.mu.Unlock()
		om := &OperatorModels{
			Operator:      po.Operator,
			Algorithm:     po.Algorithm,
			Engine:        po.Engine,
			Features:      append([]string(nil), po.Features...),
			X:             po.X,
			targets:       po.Targets,
			models:        make(map[string]model.Model),
			chosen:        make(map[string]string),
			zoo:           zoo,
			cvFolds:       p.CVFolds,
			seed:          p.seed,
			reselectEvery: p.ReselectEvery,
			stats:         &p.stats,
		}
		om.minFailRecords = po.MinFailRecords
		om.sinceReselect = po.SinceReselect
		if om.targets == nil {
			om.targets = make(map[string][]float64)
		}
		if len(om.X) > 0 {
			// Honour the family choices recorded at export time, so a
			// save/load cycle cannot flip the selection — fresh CV can land
			// elsewhere once old samples were zero-padded by a grown feature
			// set. Import stays eager (om is not shared yet): its errors
			// belong to this caller.
			for target := range om.targets {
				if fam := po.Chosen[target]; fam != "" {
					om.chosen[target] = fam
				}
			}
			if err := om.fitLocked(); err != nil {
				return fmt.Errorf("profiler: import: retraining %s: %w", po.Operator, err)
			}
		}
		p.mu.Lock()
		p.store[po.Operator] = om
		p.mu.Unlock()
		p.noteRetrain(po.Operator)
	}
	return nil
}
