package server

import (
	"fmt"
	"net/http"

	ires "github.com/asap-project/ires"
	"github.com/asap-project/ires/internal/vtime"
)

// faultTransientDTO mirrors ires.FaultTransient in JSON.
type faultTransientDTO struct {
	FailProb float64 `json:"failProb"`
	MTBFSec  float64 `json:"mtbfSec,omitempty"`
}

// faultConfigDTO is the JSON surface of ires.FaultConfig: virtual times are
// given in seconds from the simulation start.
type faultConfigDTO struct {
	Seed      int64                        `json:"seed"`
	Default   faultTransientDTO            `json:"default"`
	PerEngine map[string]faultTransientDTO `json:"perEngine,omitempty"`
	Outages   []struct {
		Engine string  `json:"engine"`
		AtSec  float64 `json:"atSec"`
	} `json:"outages,omitempty"`
	NodeCrashes []struct {
		Node  string  `json:"node"`
		AtSec float64 `json:"atSec"`
	} `json:"nodeCrashes,omitempty"`
	Straggler struct {
		Prob   float64 `json:"prob"`
		Factor float64 `json:"factor"`
	} `json:"straggler"`
}

// toConfig converts the DTO; an atSec that is no virtual time (NaN, an
// infinity, negative, or past the ~9.22e9 s a time.Duration holds) is an
// error naming the field and the value sent.
func (dto faultConfigDTO) toConfig() (ires.FaultConfig, error) {
	cfg := ires.FaultConfig{
		Seed:    dto.Seed,
		Default: ires.FaultTransient{FailProb: dto.Default.FailProb, MTBFSec: dto.Default.MTBFSec},
		Straggler: ires.StragglerFaults{
			Prob:   dto.Straggler.Prob,
			Factor: dto.Straggler.Factor,
		},
	}
	if len(dto.PerEngine) > 0 {
		cfg.PerEngine = make(map[string]ires.FaultTransient, len(dto.PerEngine))
		for name, t := range dto.PerEngine {
			cfg.PerEngine[name] = ires.FaultTransient{FailProb: t.FailProb, MTBFSec: t.MTBFSec}
		}
	}
	for i, o := range dto.Outages {
		at, err := vtime.Seconds(o.AtSec)
		if err != nil {
			return cfg, fmt.Errorf("invalid Outages[%d].AtSec: %w", i, err)
		}
		cfg.Outages = append(cfg.Outages, ires.EngineOutage{Engine: o.Engine, At: at})
	}
	for i, nc := range dto.NodeCrashes {
		at, err := vtime.Seconds(nc.AtSec)
		if err != nil {
			return cfg, fmt.Errorf("invalid NodeCrashes[%d].AtSec: %w", i, err)
		}
		cfg.NodeCrashes = append(cfg.NodeCrashes, ires.NodeCrash{Node: nc.Node, At: at})
	}
	return cfg, nil
}

// postFaults arms a fault schedule (the chaos-injection surface; body:
// faultConfigDTO).
func (s *Server) postFaults(w http.ResponseWriter, r *http.Request) {
	var dto faultConfigDTO
	if !readJSON(w, r, &dto) {
		return
	}
	cfg, err := dto.toConfig()
	if err == nil {
		err = s.platform.InjectFaults(cfg)
	}
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusCreated, map[string]string{"faults": "armed"})
}

// getFaults serves the injection counters and the circuit-breaker blacklist.
func (s *Server) getFaults(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"stats":              s.platform.FaultStats(),
		"blacklistedEngines": s.platform.BlacklistedEngines(),
		"availableEngines":   s.platform.AvailableEngines(),
	})
}
