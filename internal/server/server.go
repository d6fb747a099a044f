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
	"github.com/asap-project/ires/internal/planner"
	"github.com/asap-project/ires/internal/vtime"
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

// New builds a server around the platform. Its route table below is the
// server's only routing: each endpoint is one "METHOD /path" pattern of
// net/http.ServeMux, and its handler reads the path's {wildcards} with
// r.PathValue. An /api request that no row matches — an unknown path, or a
// known one under another method — falls to the "/api/" row and is answered
// 405 with the {"error": …} shape every API error has. README "REST routes"
// lists the table.
func New(p *ires.Platform) *Server {
	s := &Server{platform: p, workflows: make(map[string]string), traces: make(map[string][]ires.TraceEvent)}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /{$}", func(w http.ResponseWriter, r *http.Request) {
		http.Redirect(w, r, "/web/main", http.StatusFound)
	})
	mux.HandleFunc("GET /web/main", s.getWeb)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "HEALTHY"})
	})
	mux.HandleFunc("GET /metrics", s.getMetrics)

	mux.HandleFunc("GET /api/operators", s.listOperators)
	mux.HandleFunc("POST /api/operators/{name}", s.postOperator)
	mux.HandleFunc("GET /api/operators/{name}", s.getOperator)
	mux.HandleFunc("POST /api/operators/{name}/profile", s.profileOperator)
	mux.HandleFunc("POST /api/datasets/{name}", s.postDataset)
	mux.HandleFunc("GET /api/datasets/{name}", s.getDataset)
	mux.HandleFunc("POST /api/abstractOperators/{name}", s.postAbstractOperator)

	mux.HandleFunc("GET /api/workflows", s.listWorkflows)
	mux.HandleFunc("POST /api/workflows/{name}", s.postWorkflow)
	mux.HandleFunc("GET /api/workflows/{name}", s.getWorkflow)
	mux.HandleFunc("POST /api/workflows/{name}/materialize", s.materializeWorkflow)
	mux.HandleFunc("POST /api/workflows/{name}/pareto", s.paretoWorkflow)
	mux.HandleFunc("POST /api/workflows/{name}/execute", s.executeWorkflow)
	mux.HandleFunc("POST /api/workflows/{name}/submit", s.submitWorkflow)
	mux.HandleFunc("GET /api/workflows/{name}/trace", s.getWorkflowTrace)

	mux.HandleFunc("GET /api/runs", s.listRuns)
	mux.HandleFunc("GET /api/runs/{id}", s.getRun)
	mux.HandleFunc("GET /api/runs/{id}/trace", s.getRunTrace)
	mux.HandleFunc("POST /api/runs/{id}/cancel", s.cancelRun)

	mux.HandleFunc("GET /api/engines", s.listEngines)
	mux.HandleFunc("POST /api/engines/{name}/availability", s.setEngineAvailability)
	mux.HandleFunc("GET /api/faults", s.getFaults)
	mux.HandleFunc("POST /api/faults", s.postFaults)
	mux.HandleFunc("GET /api/cluster", s.getCluster)

	mux.HandleFunc("/api/", func(w http.ResponseWriter, r *http.Request) {
		writeErr(w, http.StatusMethodNotAllowed, fmt.Errorf("unsupported %s %s", r.Method, r.URL.Path))
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

// --- operators ---

type operatorDTO struct {
	Name      string `json:"name"`
	Engine    string `json:"engine"`
	Algorithm string `json:"algorithm"`
	Profiled  bool   `json:"profiled"`
}

func (s *Server) listOperators(w http.ResponseWriter, _ *http.Request) {
	out := []operatorDTO{}
	for _, mo := range s.platform.Library.Operators() {
		_, profiled := s.platform.Profiler.Models(mo.Name)
		out = append(out, operatorDTO{Name: mo.Name, Engine: mo.Engine(), Algorithm: mo.Algorithm(), Profiled: profiled})
	}
	writeJSON(w, http.StatusOK, out)
}

// postOperator registers a materialized operator; the body is the paper's
// description-file format (the send_operator.sh flow).
func (s *Server) postOperator(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	if err := s.platform.RegisterOperator(name, body); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusCreated, map[string]string{"operator": name})
}

func (s *Server) getOperator(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	mo, ok := s.platform.Library.Operator(name)
	if !ok {
		writeErr(w, http.StatusNotFound, fmt.Errorf("unknown operator %q", name))
		return
	}
	w.Header().Set("Content-Type", "text/plain")
	fmt.Fprint(w, mo.Meta.String())
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

// maxProfilePoints bounds the grid one profile request may name. Every point
// is a simulated run, profiled while the request waits (1,000 take over a
// second), and a 1 MiB body can name some 150,000.
const maxProfilePoints = 1024

func (s *Server) profileOperator(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
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
	if n := space.Points(); n > maxProfilePoints {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("profile grid has %d points; at most %d are profiled per request", n, maxProfilePoints))
		return
	}
	n, err := s.platform.ProfileOperator(name, space)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"operator": name, "runs": n})
}

func (s *Server) postDataset(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	if err := s.platform.RegisterDataset(name, body); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusCreated, map[string]string{"dataset": name})
}

func (s *Server) getDataset(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	d, ok := s.platform.Library.Dataset(name)
	if !ok {
		writeErr(w, http.StatusNotFound, fmt.Errorf("unknown dataset %q", name))
		return
	}
	w.Header().Set("Content-Type", "text/plain")
	fmt.Fprint(w, d.Meta.String())
}

func (s *Server) postAbstractOperator(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
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

func (s *Server) listWorkflows(w http.ResponseWriter, _ *http.Request) {
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

func (s *Server) postWorkflow(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
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
}

func (s *Server) getWorkflow(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	s.mu.Lock()
	body, ok := s.workflows[name]
	s.mu.Unlock()
	if !ok {
		writeErr(w, http.StatusNotFound, fmt.Errorf("unknown workflow %q", name))
		return
	}
	w.Header().Set("Content-Type", "text/plain")
	fmt.Fprint(w, body)
}

// graphOf parses the registered workflow the request's {name} names.
func (s *Server) graphOf(r *http.Request) (*ires.Workflow, error) {
	name := r.PathValue("name")
	s.mu.Lock()
	body, ok := s.workflows[name]
	s.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("unknown workflow %q", name)
	}
	return s.platform.ParseWorkflow(body)
}

func (s *Server) materializeWorkflow(w http.ResponseWriter, r *http.Request) {
	g, err := s.graphOf(r)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	plan, err := s.platform.Plan(g)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, planToDTO(plan))
}

func (s *Server) paretoWorkflow(w http.ResponseWriter, r *http.Request) {
	g, err := s.graphOf(r)
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
}

// executeWorkflow runs the workflow synchronously: it submits to the
// multi-workflow scheduler and waits — the request occupies a queue slot like
// any other run, so concurrent execute calls are arbitrated by the admission
// policy.
func (s *Server) executeWorkflow(w http.ResponseWriter, r *http.Request) {
	g, err := s.graphOf(r)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	name := r.PathValue("name")
	run := s.platform.SubmitNamed(name, g)
	plan, res, err := run.Wait()
	events := s.platform.TraceForRun(run.ID())
	s.mu.Lock()
	s.traces[name] = events
	s.mu.Unlock()
	if errors.Is(err, planner.ErrNoPlan) || errors.Is(err, vtime.ErrHorizon) {
		// Unplannable, as materialize would have answered, or an attempt
		// past the virtual-time horizon: the request's own workflow and
		// dataset sizes caused either.
		writeErr(w, http.StatusBadRequest, err)
		return
	}
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
}

// submitWorkflow enqueues the workflow and returns the run handle
// immediately; poll GET /api/runs/{id} for progress. Optional query
// parameters feed the scheduling policies: ?tenant= names the account DRF
// keeps shares per, ?user= labels it in listings,
// ?deadlineSec= sets an absolute virtual-time deadline (Deadline/EDF), and
// ?demandCores=&demandMemMB= (both required together) ask for per-node
// resource slices instead of whole nodes (DRF and memory overcommit).
func (s *Server) submitWorkflow(w http.ResponseWriter, r *http.Request) {
	g, err := s.graphOf(r)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	q := r.URL.Query()
	opts := ires.SubmitOptions{Name: r.PathValue("name"), Tenant: q.Get("tenant"), User: q.Get("user")}
	if raw := q.Get("deadlineSec"); raw != "" {
		sec, err := strconv.ParseFloat(raw, 64)
		if err == nil {
			opts.Deadline, err = vtime.Seconds(sec)
		}
		if err != nil {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("invalid deadlineSec %q: %w", raw, err))
			return
		}
	}
	rawC, rawM := q.Get("demandCores"), q.Get("demandMemMB")
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
}

// getWorkflowTrace serves the event timeline of the workflow's most recent
// execute action.
func (s *Server) getWorkflowTrace(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	s.mu.Lock()
	events, ok := s.traces[name]
	s.mu.Unlock()
	if !ok {
		writeErr(w, http.StatusNotFound, fmt.Errorf("no recorded execution for workflow %q", name))
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"workflow": name, "events": events})
}

// --- runs ---

// listRuns lists every submitted run in submission order.
func (s *Server) listRuns(w http.ResponseWriter, _ *http.Request) {
	runs := s.platform.Runs()
	if runs == nil {
		runs = []ires.RunSnapshot{}
	}
	writeJSON(w, http.StatusOK, runs)
}

// runOf looks up the snapshot of the run the request's {id} names, answering
// 404 for an id never submitted. Terminal runs are pruned from the
// scheduler's live index but stay addressable through their frozen records.
func (s *Server) runOf(w http.ResponseWriter, r *http.Request) (ires.RunSnapshot, bool) {
	id := r.PathValue("id")
	snap, ok := s.platform.RunSnapshotByID(id)
	if !ok {
		writeErr(w, http.StatusNotFound, fmt.Errorf("unknown run %q", id))
	}
	return snap, ok
}

func (s *Server) getRun(w http.ResponseWriter, r *http.Request) {
	if snap, ok := s.runOf(w, r); ok {
		writeJSON(w, http.StatusOK, snap)
	}
}

// getRunTrace serves the run's demuxed event timeline.
func (s *Server) getRunTrace(w http.ResponseWriter, r *http.Request) {
	if _, ok := s.runOf(w, r); ok {
		id := r.PathValue("id")
		writeJSON(w, http.StatusOK, map[string]any{"run": id, "events": s.platform.TraceForRun(id)})
	}
}

// cancelRun cancels the run and returns its snapshot; canceling a terminal
// run is a no-op that returns its current state.
func (s *Server) cancelRun(w http.ResponseWriter, r *http.Request) {
	snap, ok := s.runOf(w, r)
	if !ok {
		return
	}
	s.platform.CancelRun(snap.ID)
	if cur, ok := s.platform.RunSnapshotByID(snap.ID); ok {
		snap = cur
	}
	writeJSON(w, http.StatusOK, snap)
}

// getMetrics serves the platform's counter/gauge registry in the
// Prometheus text exposition format.
func (s *Server) getMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.platform.Metrics().WritePrometheus(w)
}

// --- cluster ---

// nodeDTO is one node's record: its health and what its live containers
// use.
type nodeDTO struct {
	Node      string `json:"node"`
	Healthy   bool   `json:"healthy"`
	UsedCores int    `json:"usedCores"`
	UsedMemMB int    `json:"usedMemMB"`
}

type clusterDTO struct {
	Nodes       []nodeDTO `json:"nodes"`
	Checkpoints int       `json:"checkpoints"`
}

// getCluster serves every node's record, read from one snapshot taken under
// the cluster's lock, plus the stored checkpoint count.
func (s *Server) getCluster(w http.ResponseWriter, _ *http.Request) {
	clu := s.platform.Cluster
	dto := clusterDTO{Nodes: []nodeDTO{}, Checkpoints: clu.Checkpoints()}
	for _, n := range clu.Snapshot() {
		dto.Nodes = append(dto.Nodes, nodeDTO{
			Node:      n.Name,
			Healthy:   n.Healthy(),
			UsedCores: n.Cores - n.FreeCores(),
			UsedMemMB: n.MemMB - n.FreeMemMB(),
		})
	}
	writeJSON(w, http.StatusOK, dto)
}

// --- engines ---

type engineDTO struct {
	Name      string `json:"name"`
	Available bool   `json:"available"`
}

func (s *Server) listEngines(w http.ResponseWriter, _ *http.Request) {
	out := []engineDTO{}
	for _, name := range s.platform.Env.Engines() {
		out = append(out, engineDTO{Name: name, Available: s.platform.Env.Available(name)})
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) setEngineAvailability(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
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
