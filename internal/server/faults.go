package server

import (
	"net/http"
	"time"

	ires "github.com/asap-project/ires"
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

func (dto faultConfigDTO) toConfig() ires.FaultConfig {
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
	for _, o := range dto.Outages {
		cfg.Outages = append(cfg.Outages, ires.EngineOutage{
			Engine: o.Engine,
			At:     time.Duration(o.AtSec * float64(time.Second)),
		})
	}
	for _, nc := range dto.NodeCrashes {
		cfg.NodeCrashes = append(cfg.NodeCrashes, ires.NodeCrash{
			Node: nc.Node,
			At:   time.Duration(nc.AtSec * float64(time.Second)),
		})
	}
	return cfg
}

// postFaults arms a fault schedule (the chaos-injection surface; body:
// faultConfigDTO).
func (s *Server) postFaults(w http.ResponseWriter, r *http.Request) {
	var dto faultConfigDTO
	if !readJSON(w, r, &dto) {
		return
	}
	if err := s.platform.InjectFaults(dto.toConfig()); err != nil {
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
