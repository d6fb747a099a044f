// Package server implements the IReS external REST API (D3.3 §3.5): the
// interface through which the other ASAP components — and any downstream
// client — register datasets and operators, define abstract workflows,
// materialize them into multi-engine plans and trigger execution. The
// original server listens on :1323; this one wraps an *ires.Platform with
// net/http.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	ires "github.com/asap-project/ires"
	"github.com/asap-project/ires/internal/engine"
)

// Server exposes a Platform over HTTP. Construct with New and mount via
// Handler.
type Server struct {
	mu       sync.Mutex
	platform *ires.Platform
	// workflows stores registered abstract workflow graph files by name.
	workflows map[string]string
	// traces stores, per workflow name, the event timeline captured during
	// its most recent execute action.
	traces map[string][]ires.TraceEvent
	mux    *http.ServeMux
}

// New builds a server around the platform.
func New(p *ires.Platform) *Server {
	s := &Server{platform: p, workflows: make(map[string]string), traces: make(map[string][]ires.TraceEvent)}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/api/operators", s.handleOperators)
	mux.HandleFunc("/api/operators/", s.handleOperator)
	mux.HandleFunc("/api/datasets/", s.handleDataset)
	mux.HandleFunc("/api/abstractOperators/", s.handleAbstractOperator)
	mux.HandleFunc("/api/workflows", s.handleWorkflows)
	mux.HandleFunc("/api/workflows/", s.handleWorkflow)
	mux.HandleFunc("/api/runs", s.handleRuns)
	mux.HandleFunc("/api/runs/", s.handleRun)
	mux.HandleFunc("/api/engines", s.handleEngines)
	mux.HandleFunc("/api/engines/", s.handleEngine)
	mux.HandleFunc("/api/faults", s.handleFaults)
	mux.HandleFunc("/api/cluster", s.handleCluster)
	mux.HandleFunc("/web/main", s.handleWeb)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/" {
			http.Redirect(w, r, "/web/main", http.StatusFound)
			return
		}
		http.NotFound(w, r)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "HEALTHY"})
	})
	s.mux = mux
	return s
}

// Handler returns the HTTP handler (mount under any address/port).
func (s *Server) Handler() http.Handler { return s.mux }

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

// maxBodyBytes bounds every request body the server reads.
const maxBodyBytes = 1 << 20

// readBody reads the whole request body. A body over maxBodyBytes is refused
// with 413 rather than cut short, a failed read with 400; in both cases the
// error has been written and readBody reports false.
func readBody(w http.ResponseWriter, r *http.Request) (string, bool) {
	b, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		code := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			code = http.StatusRequestEntityTooLarge
		}
		writeErr(w, code, err)
		return "", false
	}
	return string(b), true
}

// readJSON decodes the request body into v under readBody's bound; malformed
// JSON is answered with 400.
func readJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	body, ok := readBody(w, r)
	if !ok {
		return false
	}
	if err := json.NewDecoder(strings.NewReader(body)).Decode(v); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return false
	}
	return true
}

// tailName extracts the final path element after the given prefix.
func tailName(path, prefix string) (string, string) {
	rest := strings.TrimPrefix(path, prefix)
	if i := strings.Index(rest, "/"); i >= 0 {
		return rest[:i], rest[i+1:]
	}
	return rest, ""
}

// --- operators ---

type operatorDTO struct {
	Name      string `json:"name"`
	Engine    string `json:"engine"`
	Algorithm string `json:"algorithm"`
	Profiled  bool   `json:"profiled"`
}

func (s *Server) handleOperators(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, fmt.Errorf("GET only"))
		return
	}
	var out []operatorDTO
	for _, mo := range s.platform.Library.Operators() {
		_, profiled := s.platform.Profiler.Models(mo.Name)
		out = append(out, operatorDTO{Name: mo.Name, Engine: mo.Engine(), Algorithm: mo.Algorithm(), Profiled: profiled})
	}
	writeJSON(w, http.StatusOK, out)
}

// profileRequest mirrors ires.ProfileSpace in JSON.
type profileRequest struct {
	Records        []int64              `json:"records"`
	BytesPerRecord int64                `json:"bytesPerRecord"`
	Params         map[string][]float64 `json:"params,omitempty"`
	Resources      []resourceDTO        `json:"resources"`
}

type resourceDTO struct {
	Nodes     int `json:"nodes"`
	CoresPerN int `json:"coresPerNode"`
	MemMBPerN int `json:"memMBPerNode"`
}

func (s *Server) handleOperator(w http.ResponseWriter, r *http.Request) {
	name, action := tailName(r.URL.Path, "/api/operators/")
	if name == "" {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("operator name required"))
		return
	}
	switch {
	case r.Method == http.MethodPost && action == "":
		// Register a materialized operator; the body is the paper's
		// description-file format (the send_operator.sh flow).
		body, ok := readBody(w, r)
		if !ok {
			return
		}
		if err := s.platform.RegisterOperator(name, body); err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		writeJSON(w, http.StatusCreated, map[string]string{"operator": name})
	case r.Method == http.MethodPost && action == "profile":
		var req profileRequest
		if !readJSON(w, r, &req) {
			return
		}
		space := ires.ProfileSpace{
			Records:        req.Records,
			BytesPerRecord: req.BytesPerRecord,
			Params:         req.Params,
		}
		for _, res := range req.Resources {
			space.Resources = append(space.Resources, engine.Resources{
				Nodes: res.Nodes, CoresPerN: res.CoresPerN, MemMBPerN: res.MemMBPerN,
			})
		}
		n, err := s.platform.ProfileOperator(name, space)
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"operator": name, "runs": n})
	case r.Method == http.MethodGet && action == "":
		mo, ok := s.platform.Library.Operator(name)
		if !ok {
			writeErr(w, http.StatusNotFound, fmt.Errorf("unknown operator %q", name))
			return
		}
		w.Header().Set("Content-Type", "text/plain")
		fmt.Fprint(w, mo.Meta.String())
	default:
		writeErr(w, http.StatusMethodNotAllowed, fmt.Errorf("unsupported %s %s", r.Method, r.URL.Path))
	}
}

func (s *Server) handleDataset(w http.ResponseWriter, r *http.Request) {
	name, _ := tailName(r.URL.Path, "/api/datasets/")
	if name == "" {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("dataset name required"))
		return
	}
	switch r.Method {
	case http.MethodPost:
		body, ok := readBody(w, r)
		if !ok {
			return
		}
		if err := s.platform.RegisterDataset(name, body); err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		writeJSON(w, http.StatusCreated, map[string]string{"dataset": name})
	case http.MethodGet:
		d, ok := s.platform.Library.Dataset(name)
		if !ok {
			writeErr(w, http.StatusNotFound, fmt.Errorf("unknown dataset %q", name))
			return
		}
		w.Header().Set("Content-Type", "text/plain")
		fmt.Fprint(w, d.Meta.String())
	default:
		writeErr(w, http.StatusMethodNotAllowed, fmt.Errorf("unsupported method"))
	}
}

func (s *Server) handleAbstractOperator(w http.ResponseWriter, r *http.Request) {
	name, _ := tailName(r.URL.Path, "/api/abstractOperators/")
	if name == "" || r.Method != http.MethodPost {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("POST /api/abstractOperators/<name>"))
		return
	}
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	if err := s.platform.RegisterAbstractOperator(name, body); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusCreated, map[string]string{"abstractOperator": name})
}

// --- workflows ---

func (s *Server) handleWorkflows(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, fmt.Errorf("GET only"))
		return
	}
	s.mu.Lock()
	names := make([]string, 0, len(s.workflows))
	for n := range s.workflows {
		names = append(names, n)
	}
	s.mu.Unlock()
	sort.Strings(names)
	writeJSON(w, http.StatusOK, names)
}

// planDTO serialises a materialized plan.
type planDTO struct {
	RunID        string        `json:"runId,omitempty"`
	Target       string        `json:"target"`
	EstTimeSec   float64       `json:"estTimeSec"`
	EstCost      float64       `json:"estCost"`
	PlanningMs   float64       `json:"planningMs"`
	Engines      []string      `json:"engines"`
	Steps        []planStepDTO `json:"steps"`
	ExecutionSec float64       `json:"executionSec,omitempty"`
	CostUnits    float64       `json:"costUnits,omitempty"`
	Replans      int           `json:"replans,omitempty"`
}

type planStepDTO struct {
	ID        int      `json:"id"`
	Kind      string   `json:"kind"`
	Name      string   `json:"name"`
	Engine    string   `json:"engine"`
	EstTime   float64  `json:"estTimeSec"`
	DependsOn []int    `json:"dependsOn,omitempty"`
	Sources   []string `json:"sources,omitempty"`
}

func planToDTO(plan *ires.Plan) planDTO {
	dto := planDTO{
		Target:     plan.Target,
		EstTimeSec: plan.EstTimeSec,
		EstCost:    plan.EstCost,
		PlanningMs: float64(plan.PlanningTime.Microseconds()) / 1000,
		Engines:    plan.Engines(),
	}
	for _, st := range plan.Steps {
		dto.Steps = append(dto.Steps, planStepDTO{
			ID: st.ID, Kind: st.Kind.String(), Name: st.Name, Engine: st.Engine,
			EstTime: st.EstTimeSec, DependsOn: st.DependsOn, Sources: st.SourceInputs,
		})
	}
	return dto
}

func (s *Server) handleWorkflow(w http.ResponseWriter, r *http.Request) {
	name, action := tailName(r.URL.Path, "/api/workflows/")
	if name == "" {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("workflow name required"))
		return
	}
	switch {
	case r.Method == http.MethodPost && action == "":
		body, ok := readBody(w, r)
		if !ok {
			return
		}
		// Validate eagerly so registration errors surface immediately.
		if _, err := s.platform.ParseWorkflow(body); err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		s.mu.Lock()
		s.workflows[name] = body
		s.mu.Unlock()
		writeJSON(w, http.StatusCreated, map[string]string{"workflow": name})
	case r.Method == http.MethodGet && action == "":
		s.mu.Lock()
		body, ok := s.workflows[name]
		s.mu.Unlock()
		if !ok {
			writeErr(w, http.StatusNotFound, fmt.Errorf("unknown workflow %q", name))
			return
		}
		w.Header().Set("Content-Type", "text/plain")
		fmt.Fprint(w, body)
	case r.Method == http.MethodPost && action == "materialize":
		plan, _, err := s.materialize(name)
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		writeJSON(w, http.StatusOK, planToDTO(plan))
	case r.Method == http.MethodPost && action == "pareto":
		_, g, err := s.graphOf(name)
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		plans, err := s.platform.ParetoPlans(g)
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		out := make([]planDTO, 0, len(plans))
		for _, plan := range plans {
			out = append(out, planToDTO(plan))
		}
		writeJSON(w, http.StatusOK, out)
	case r.Method == http.MethodPost && action == "execute":
		// Synchronous execution: submit to the multi-workflow scheduler and
		// wait — the request occupies a queue slot like any other run, so
		// concurrent execute calls are arbitrated by the admission policy.
		_, g, err := s.graphOf(name)
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		run := s.platform.SubmitNamed(name, g)
		plan, res, err := run.Wait()
		events := s.platform.TraceForRun(run.ID())
		s.mu.Lock()
		s.traces[name] = events
		s.mu.Unlock()
		if err != nil {
			writeErr(w, http.StatusInternalServerError, err)
			return
		}
		dto := planToDTO(plan)
		dto.RunID = run.ID()
		dto.ExecutionSec = res.Makespan.Seconds()
		dto.CostUnits = res.TotalCostUnits
		dto.Replans = res.Replans
		writeJSON(w, http.StatusOK, dto)
	case r.Method == http.MethodPost && action == "submit":
		// Asynchronous execution: enqueue and return the run handle
		// immediately; poll GET /api/runs/{id} for progress. Optional query
		// parameters feed the scheduling policies: ?tenant= charges the run
		// to a budget account (CostQuota) or fair-share group, ?user= and
		// ?priority= refine hierarchical fair-share accounting, and
		// ?deadlineSec= sets an absolute virtual-time deadline
		// (Deadline/EDF), and ?demandCores=&demandMemMB= (both required
		// together) ask for per-node resource slices instead of whole
		// nodes (DRF and memory overcommit).
		_, g, err := s.graphOf(name)
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		opts := ires.SubmitOptions{
			Name:   name,
			Tenant: r.URL.Query().Get("tenant"),
			User:   r.URL.Query().Get("user"),
		}
		if raw := r.URL.Query().Get("priority"); raw != "" {
			p, err := strconv.Atoi(raw)
			if err != nil {
				writeErr(w, http.StatusBadRequest, fmt.Errorf("invalid priority %q", raw))
				return
			}
			opts.Priority = p
		}
		if raw := r.URL.Query().Get("deadlineSec"); raw != "" {
			sec, err := strconv.ParseFloat(raw, 64)
			if err != nil || sec < 0 {
				writeErr(w, http.StatusBadRequest, fmt.Errorf("invalid deadlineSec %q", raw))
				return
			}
			opts.Deadline = time.Duration(sec * float64(time.Second))
		}
		rawC, rawM := r.URL.Query().Get("demandCores"), r.URL.Query().Get("demandMemMB")
		if (rawC == "") != (rawM == "") {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("demandCores and demandMemMB must be given together"))
			return
		}
		if rawC != "" {
			dc, errC := strconv.Atoi(rawC)
			dm, errM := strconv.Atoi(rawM)
			if errC != nil || errM != nil || dc < 1 || dm < 1 {
				writeErr(w, http.StatusBadRequest, fmt.Errorf("invalid demand %q cores / %q memMB", rawC, rawM))
				return
			}
			opts.DemandCores, opts.DemandMemMB = dc, dm
		}
		run := s.platform.SubmitWith(g, opts)
		s.platform.Start()
		writeJSON(w, http.StatusAccepted, run.Status())
	case r.Method == http.MethodGet && action == "trace":
		s.mu.Lock()
		events, ok := s.traces[name]
		s.mu.Unlock()
		if !ok {
			writeErr(w, http.StatusNotFound, fmt.Errorf("no recorded execution for workflow %q", name))
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"workflow": name, "events": events})
	default:
		writeErr(w, http.StatusMethodNotAllowed, fmt.Errorf("unsupported %s %s", r.Method, r.URL.Path))
	}
}

func (s *Server) graphOf(name string) (string, *ires.Workflow, error) {
	s.mu.Lock()
	body, ok := s.workflows[name]
	s.mu.Unlock()
	if !ok {
		return "", nil, fmt.Errorf("unknown workflow %q", name)
	}
	g, err := s.platform.ParseWorkflow(body)
	return body, g, err
}

func (s *Server) materialize(name string) (*ires.Plan, *ires.Workflow, error) {
	_, g, err := s.graphOf(name)
	if err != nil {
		return nil, nil, err
	}
	plan, err := s.platform.Plan(g)
	return plan, g, err
}

// --- runs ---

// handleRuns lists every submitted run in submission order.
func (s *Server) handleRuns(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, fmt.Errorf("GET only"))
		return
	}
	runs := s.platform.Runs()
	if runs == nil {
		runs = []ires.RunSnapshot{}
	}
	writeJSON(w, http.StatusOK, runs)
}

// handleRun serves GET /api/runs/{id} (status snapshot), GET
// /api/runs/{id}/trace (the run's demuxed event timeline) and POST
// /api/runs/{id}/cancel.
func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	id, action := tailName(r.URL.Path, "/api/runs/")
	if id == "" {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("run id required"))
		return
	}
	// Snapshot-based lookup: terminal runs are pruned from the scheduler's
	// live index but stay addressable here via their frozen records.
	snap, ok := s.platform.RunSnapshotByID(id)
	if !ok {
		writeErr(w, http.StatusNotFound, fmt.Errorf("unknown run %q", id))
		return
	}
	switch {
	case r.Method == http.MethodGet && action == "":
		writeJSON(w, http.StatusOK, snap)
	case r.Method == http.MethodGet && action == "trace":
		writeJSON(w, http.StatusOK, map[string]any{
			"run":    id,
			"events": s.platform.TraceForRun(id),
		})
	case r.Method == http.MethodPost && action == "cancel":
		// Canceling a terminal run is a no-op; return its current state.
		s.platform.CancelRun(id)
		if cur, ok := s.platform.RunSnapshotByID(id); ok {
			snap = cur
		}
		writeJSON(w, http.StatusOK, snap)
	default:
		writeErr(w, http.StatusMethodNotAllowed, fmt.Errorf("unsupported %s %s", r.Method, r.URL.Path))
	}
}

// handleMetrics serves the platform's counter/gauge registry in the
// Prometheus text exposition format.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, fmt.Errorf("GET only"))
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.platform.Metrics().WritePrometheus(w)
}

// --- cluster ---

// agentNodeDTO pairs the control plane's believed (desired) view of a node
// with the node agent's published report. The two disagree only while an
// agent has changed on its own and no reconcile round has read it yet.
type agentNodeDTO struct {
	Node             string   `json:"node"`
	BelievedHealthy  bool     `json:"believedHealthy"`
	DesiredUsedCores int      `json:"desiredUsedCores"`
	DesiredUsedMemMB int      `json:"desiredUsedMemMB"`
	ReportHealthy    bool     `json:"reportHealthy"`
	Incarnation      int      `json:"incarnation"`
	Seq              int64    `json:"seq"`
	UsedCores        int      `json:"usedCores"`
	UsedMemMB        int      `json:"usedMemMB"`
	Containers       []int    `json:"containers,omitempty"`
	Replicas         []string `json:"replicas,omitempty"`
}

type clusterDTO struct {
	Nodes             []agentNodeDTO `json:"nodes"`
	DeathsDetected    int            `json:"deathsDetected"`
	DesiredActualDiff int            `json:"desiredActualDiff"`
	Checkpoints       int            `json:"checkpoints"`
}

// handleCluster serves GET /api/cluster: the per-agent desired/actual state
// of every node plus the reconciler's death counter.
func (s *Server) handleCluster(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, fmt.Errorf("GET only"))
		return
	}
	clu := s.platform.Cluster
	reports := clu.AgentReports() // in Nodes() order
	dto := clusterDTO{
		Nodes:             []agentNodeDTO{},
		DeathsDetected:    clu.DeathsDetected(),
		DesiredActualDiff: clu.DesiredActualDiff(),
		Checkpoints:       clu.Checkpoints(),
	}
	for i, n := range clu.Nodes() {
		rep := reports[i]
		dto.Nodes = append(dto.Nodes, agentNodeDTO{
			Node:             n.Name,
			BelievedHealthy:  n.Healthy(),
			DesiredUsedCores: n.Cores - n.FreeCores(),
			DesiredUsedMemMB: n.MemMB - n.FreeMemMB(),
			ReportHealthy:    rep.Healthy,
			Incarnation:      rep.Incarnation,
			Seq:              rep.Seq,
			UsedCores:        rep.UsedCores,
			UsedMemMB:        rep.UsedMemMB,
			Containers:       rep.Containers,
			Replicas:         rep.Replicas,
		})
	}
	writeJSON(w, http.StatusOK, dto)
}

// --- engines ---

type engineDTO struct {
	Name      string `json:"name"`
	Available bool   `json:"available"`
}

func (s *Server) handleEngines(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, fmt.Errorf("GET only"))
		return
	}
	var out []engineDTO
	for _, name := range s.platform.Env.Engines() {
		out = append(out, engineDTO{Name: name, Available: s.platform.Env.Available(name)})
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleEngine(w http.ResponseWriter, r *http.Request) {
	name, action := tailName(r.URL.Path, "/api/engines/")
	if name == "" || action != "availability" || r.Method != http.MethodPost {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("POST /api/engines/<name>/availability"))
		return
	}
	if _, ok := s.platform.Env.Engine(name); !ok {
		writeErr(w, http.StatusNotFound, fmt.Errorf("unknown engine %q", name))
		return
	}
	var req struct {
		On bool `json:"on"`
	}
	if !readJSON(w, r, &req) {
		return
	}
	s.platform.SetEngineAvailable(name, req.On)
	writeJSON(w, http.StatusOK, engineDTO{Name: name, Available: req.On})
}

// PreloadLibrary loads an asapLibrary-style directory into the platform and
// registers its abstract workflow graph files with the server.
func (s *Server) PreloadLibrary(dir string) error {
	if _, err := s.platform.LoadLibraryDir(dir); err != nil {
		return err
	}
	entries, err := os.ReadDir(filepath.Join(dir, "abstractWorkflows"))
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, "abstractWorkflows", e.Name(), "graph"))
		if err != nil {
			return err
		}
		s.mu.Lock()
		s.workflows[e.Name()] = string(data)
		s.mu.Unlock()
	}
	return nil
}

// Every handler answers in virtual time — milliseconds of wall time — so a
// minute per phase is generous, and without the bounds a client that
// trickles a body, never finishes one or never reads the response pins a
// goroutine and a connection for as long as it likes.
const (
	readHeaderTimeout = 10 * time.Second
	readTimeout       = time.Minute
	writeTimeout      = time.Minute
	idleTimeout       = 2 * time.Minute
)

// httpServer builds the http.Server ListenAndServe runs.
func (s *Server) httpServer(addr string) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           s.mux,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		WriteTimeout:      writeTimeout,
		IdleTimeout:       idleTimeout,
	}
}

// ListenAndServe runs the server on addr until the listener fails.
func (s *Server) ListenAndServe(addr string) error {
	return s.httpServer(addr).ListenAndServe()
}
