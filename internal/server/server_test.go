package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	ires "github.com/asap-project/ires"
	"github.com/asap-project/ires/internal/model"
)

func newTestServer(t *testing.T) (*Server, *httptest.Server, *ires.Platform) {
	t.Helper()
	// Retry and breaker knobs let the fault-injection endpoint test drive a
	// full recovery path; they are inert for fault-free flows.
	p, err := ires.NewPlatform(ires.Options{
		Seed:             2,
		Retry:            ires.RetryPolicy{MaxAttempts: 2, BaseBackoff: time.Second},
		BreakerThreshold: 2,
		BreakerCooldown:  time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	p.Profiler.Factories = []model.Factory{
		func() model.Model { return model.NewLinear() },
		func() model.Model { return model.NewKNN(2) },
	}
	s := New(p)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts, p
}

func do(t *testing.T, method, url, body string) (*http.Response, string) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	_, _ = buf.ReadFrom(resp.Body)
	return resp, buf.String()
}

func expectCode(t *testing.T, resp *http.Response, body string, want int) {
	t.Helper()
	if resp.StatusCode != want {
		t.Fatalf("status %d, want %d: %s", resp.StatusCode, want, body)
	}
}

const wordcountJava = `
Constraints.Engine=Java
Constraints.OpSpecification.Algorithm.name=wordcount
Constraints.Input0.Engine.FS=HDFS
Constraints.Output0.Engine.FS=HDFS
`

const wordcountSpark = `
Constraints.Engine=Spark
Constraints.OpSpecification.Algorithm.name=wordcount
Constraints.Input0.Engine.FS=HDFS
Constraints.Output0.Engine.FS=HDFS
`

// setupWordcount registers datasets, operators and the workflow through the
// REST API only — the external-component flow of D3.3 §3.5.
func setupWordcount(t *testing.T, ts *httptest.Server) {
	t.Helper()
	resp, body := do(t, "POST", ts.URL+"/api/datasets/logs",
		"Constraints.Engine.FS=HDFS\nExecution.path=hdfs:///logs\nOptimization.documents=50000\nOptimization.size=50000000")
	expectCode(t, resp, body, http.StatusCreated)

	resp, body = do(t, "POST", ts.URL+"/api/operators/wordcount_java", wordcountJava)
	expectCode(t, resp, body, http.StatusCreated)
	resp, body = do(t, "POST", ts.URL+"/api/operators/wordcount_spark", wordcountSpark)
	expectCode(t, resp, body, http.StatusCreated)

	resp, body = do(t, "POST", ts.URL+"/api/abstractOperators/wordcount",
		"Constraints.OpSpecification.Algorithm.name=wordcount")
	expectCode(t, resp, body, http.StatusCreated)

	profile := `{"records":[1000,10000,100000],"bytesPerRecord":1000,
		"resources":[{"nodes":1,"coresPerNode":2,"memMBPerNode":3456},
		             {"nodes":16,"coresPerNode":2,"memMBPerNode":3456}]}`
	for _, op := range []string{"wordcount_java", "wordcount_spark"} {
		resp, body = do(t, "POST", ts.URL+"/api/operators/"+op+"/profile", profile)
		expectCode(t, resp, body, http.StatusOK)
	}

	resp, body = do(t, "POST", ts.URL+"/api/workflows/wc",
		"logs,wordcount,0\nwordcount,d1,0\nd1,$$target\n")
	expectCode(t, resp, body, http.StatusCreated)
}

func TestFullRESTFlow(t *testing.T) {
	_, ts, _ := newTestServer(t)
	setupWordcount(t, ts)

	// List workflows and operators.
	resp, body := do(t, "GET", ts.URL+"/api/workflows", "")
	expectCode(t, resp, body, http.StatusOK)
	if !strings.Contains(body, "wc") {
		t.Fatalf("workflow list: %s", body)
	}
	resp, body = do(t, "GET", ts.URL+"/api/operators", "")
	expectCode(t, resp, body, http.StatusOK)
	var ops []map[string]any
	if err := json.Unmarshal([]byte(body), &ops); err != nil || len(ops) != 2 {
		t.Fatalf("operators: %s", body)
	}
	for _, op := range ops {
		if op["profiled"] != true {
			t.Fatalf("operator not profiled: %v", op)
		}
	}

	// Materialize.
	resp, body = do(t, "POST", ts.URL+"/api/workflows/wc/materialize", "")
	expectCode(t, resp, body, http.StatusOK)
	var plan map[string]any
	if err := json.Unmarshal([]byte(body), &plan); err != nil {
		t.Fatal(err)
	}
	if plan["target"] != "d1" || plan["estTimeSec"].(float64) <= 0 {
		t.Fatalf("plan: %s", body)
	}

	// Pareto front.
	resp, body = do(t, "POST", ts.URL+"/api/workflows/wc/pareto", "")
	expectCode(t, resp, body, http.StatusOK)
	var front []map[string]any
	if err := json.Unmarshal([]byte(body), &front); err != nil || len(front) == 0 {
		t.Fatalf("pareto: %s", body)
	}

	// Execute.
	resp, body = do(t, "POST", ts.URL+"/api/workflows/wc/execute", "")
	expectCode(t, resp, body, http.StatusOK)
	var exec map[string]any
	if err := json.Unmarshal([]byte(body), &exec); err != nil {
		t.Fatal(err)
	}
	if exec["executionSec"].(float64) <= 0 {
		t.Fatalf("execution: %s", body)
	}
}

func TestEngineAvailabilityEndpoint(t *testing.T) {
	_, ts, p := newTestServer(t)
	resp, body := do(t, "GET", ts.URL+"/api/engines", "")
	expectCode(t, resp, body, http.StatusOK)
	if !strings.Contains(body, `"Spark"`) {
		t.Fatalf("engines: %s", body)
	}
	resp, body = do(t, "POST", ts.URL+"/api/engines/Spark/availability", `{"on":false}`)
	expectCode(t, resp, body, http.StatusOK)
	if p.Env.Available(ires.EngineSpark) {
		t.Fatal("availability not applied")
	}
	resp, body = do(t, "POST", ts.URL+"/api/engines/NoSuch/availability", `{"on":true}`)
	expectCode(t, resp, body, http.StatusNotFound)
}

func TestErrorPaths(t *testing.T) {
	_, ts, _ := newTestServer(t)
	cases := []struct {
		method, path, body string
		want               int
	}{
		{"POST", "/api/operators/bad", "not a description", http.StatusBadRequest},
		{"GET", "/api/operators/missing", "", http.StatusNotFound},
		{"GET", "/api/datasets/missing", "", http.StatusNotFound},
		{"POST", "/api/workflows/bad", "malformed graph line", http.StatusBadRequest},
		{"POST", "/api/workflows/none/materialize", "", http.StatusBadRequest},
		{"DELETE", "/api/workflows", "", http.StatusMethodNotAllowed},
		{"POST", "/api/operators/x/profile", "{not json", http.StatusBadRequest},
		{"POST", "/api/engines/Spark/availability", "{not json", http.StatusBadRequest},
		{"PUT", "/api/engines", "", http.StatusMethodNotAllowed},
	}
	for _, c := range cases {
		resp, body := do(t, c.method, ts.URL+c.path, c.body)
		if resp.StatusCode != c.want {
			t.Errorf("%s %s: status %d, want %d (%s)", c.method, c.path, resp.StatusCode, c.want, body)
		}
	}
}

func TestHealthz(t *testing.T) {
	_, ts, _ := newTestServer(t)
	resp, body := do(t, "GET", ts.URL+"/healthz", "")
	expectCode(t, resp, body, http.StatusOK)
	if !strings.Contains(body, "HEALTHY") {
		t.Fatalf("healthz: %s", body)
	}
}

// The server ListenAndServe runs bounds every phase of a connection, and the
// bounds do not get in the way of an ordinary request.
func TestHTTPServerTimeouts(t *testing.T) {
	s, _, _ := newTestServer(t)
	srv := s.httpServer("127.0.0.1:0")
	if srv.ReadTimeout <= 0 || srv.WriteTimeout <= 0 || srv.IdleTimeout <= 0 || srv.ReadHeaderTimeout <= 0 {
		t.Fatalf("unbounded connection phase: read=%v write=%v idle=%v header=%v",
			srv.ReadTimeout, srv.WriteTimeout, srv.IdleTimeout, srv.ReadHeaderTimeout)
	}
	ts := httptest.NewUnstartedServer(nil)
	ts.Config = srv
	ts.Start()
	defer ts.Close()
	resp, body := do(t, "GET", ts.URL+"/healthz", "")
	expectCode(t, resp, body, http.StatusOK)
}

func TestRoundTripDescriptions(t *testing.T) {
	_, ts, _ := newTestServer(t)
	setupWordcount(t, ts)
	resp, body := do(t, "GET", ts.URL+"/api/operators/wordcount_java", "")
	expectCode(t, resp, body, http.StatusOK)
	if !strings.Contains(body, "Constraints.Engine=Java") {
		t.Fatalf("operator description: %s", body)
	}
	resp, body = do(t, "GET", ts.URL+"/api/datasets/logs", "")
	expectCode(t, resp, body, http.StatusOK)
	if !strings.Contains(body, "Execution.path=hdfs:///logs") {
		t.Fatalf("dataset description: %s", body)
	}
	resp, body = do(t, "GET", ts.URL+"/api/workflows/wc", "")
	expectCode(t, resp, body, http.StatusOK)
	if !strings.Contains(body, "$$target") {
		t.Fatalf("workflow body: %s", body)
	}
}

func TestExecuteAvoidsDeadEngineViaAPI(t *testing.T) {
	_, ts, p := newTestServer(t)
	setupWordcount(t, ts)

	// Figure out the engine the optimal plan uses, kill it through the
	// API-visible state, and execute: the endpoint re-materializes against
	// live availability, so the run must finish on the surviving engine
	// with no failure.
	resp, body := do(t, "POST", ts.URL+"/api/workflows/wc/materialize", "")
	expectCode(t, resp, body, http.StatusOK)
	var plan struct {
		Steps []struct {
			Kind   string `json:"kind"`
			Engine string `json:"engine"`
		} `json:"steps"`
	}
	if err := json.Unmarshal([]byte(body), &plan); err != nil {
		t.Fatal(err)
	}
	victim := ""
	for _, s := range plan.Steps {
		if s.Kind == "operator" {
			victim = s.Engine
		}
	}
	if victim == "" {
		t.Fatal("no operator step in plan")
	}
	p.SetEngineAvailable(victim, false)

	resp, body = do(t, "POST", ts.URL+"/api/workflows/wc/execute", "")
	expectCode(t, resp, body, http.StatusOK)
	var exec struct {
		Engines      []string `json:"engines"`
		ExecutionSec float64  `json:"executionSec"`
		Replans      int      `json:"replans"`
	}
	if err := json.Unmarshal([]byte(body), &exec); err != nil {
		t.Fatal(err)
	}
	if exec.ExecutionSec <= 0 || exec.Replans != 0 {
		t.Fatalf("execution after kill: %s", body)
	}
	for _, e := range exec.Engines {
		if e == victim {
			t.Fatalf("dead engine %s still used: %s", victim, body)
		}
	}
	_ = fmt.Sprint() // keep fmt for diagnostics
}

func TestWebUIServed(t *testing.T) {
	_, ts, _ := newTestServer(t)
	resp, body := do(t, "GET", ts.URL+"/web/main", "")
	expectCode(t, resp, body, http.StatusOK)
	for _, frag := range []string{"Abstract Workflows", "Materialize", "/api/workflows", "IReS"} {
		if !strings.Contains(body, frag) && !strings.Contains(body, strings.ToLower(frag)) {
			t.Errorf("web UI missing %q", frag)
		}
	}
	// Root redirects to the UI, like the original server's home page.
	resp, body = do(t, "GET", ts.URL+"/", "")
	expectCode(t, resp, body, http.StatusOK) // client follows the redirect
	if resp, body := do(t, "POST", ts.URL+"/web/main", ""); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST to web UI: %d %s", resp.StatusCode, body)
	}
	if resp, _ := do(t, "GET", ts.URL+"/nosuchpage", ""); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown path: %d", resp.StatusCode)
	}
}

func TestRunEndpoints(t *testing.T) {
	_, ts, _ := newTestServer(t)

	// Fresh platform: the run list is an empty array, not null.
	resp, body := do(t, "GET", ts.URL+"/api/runs", "")
	expectCode(t, resp, body, http.StatusOK)
	if strings.TrimSpace(body) != "[]" {
		t.Fatalf("empty run list = %q, want []", body)
	}

	setupWordcount(t, ts)

	// Asynchronous submission returns 202 with the run handle immediately.
	resp, body = do(t, "POST", ts.URL+"/api/workflows/wc/submit", "")
	expectCode(t, resp, body, http.StatusAccepted)
	var snap struct {
		ID       string `json:"id"`
		Workflow string `json:"workflow"`
		Status   string `json:"status"`
	}
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.ID == "" || snap.Workflow != "wc" {
		t.Fatalf("submit snapshot: %s", body)
	}

	// Poll until the run is terminal (virtual time makes this near-instant
	// in wall time, but the goroutine handoff is asynchronous).
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, body = do(t, "GET", ts.URL+"/api/runs/"+snap.ID, "")
		expectCode(t, resp, body, http.StatusOK)
		if err := json.Unmarshal([]byte(body), &snap); err != nil {
			t.Fatal(err)
		}
		if snap.Status == "succeeded" || snap.Status == "failed" || snap.Status == "canceled" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("run %s still %s", snap.ID, snap.Status)
		}
		time.Sleep(time.Millisecond)
	}
	if snap.Status != "succeeded" {
		t.Fatalf("run finished %s: %s", snap.Status, body)
	}

	// The run shows up in the listing.
	resp, body = do(t, "GET", ts.URL+"/api/runs", "")
	expectCode(t, resp, body, http.StatusOK)
	var list []struct {
		ID     string `json:"id"`
		Status string `json:"status"`
	}
	if err := json.Unmarshal([]byte(body), &list); err != nil || len(list) != 1 {
		t.Fatalf("run list: %s", body)
	}

	// Its demuxed trace carries only events stamped with this run's id.
	resp, body = do(t, "GET", ts.URL+"/api/runs/"+snap.ID+"/trace", "")
	expectCode(t, resp, body, http.StatusOK)
	var tr struct {
		Run    string `json:"run"`
		Events []struct {
			Run  string `json:"run"`
			Type string `json:"type"`
		} `json:"events"`
	}
	if err := json.Unmarshal([]byte(body), &tr); err != nil {
		t.Fatal(err)
	}
	if tr.Run != snap.ID || len(tr.Events) == 0 {
		t.Fatalf("trace: %s", body)
	}
	for _, ev := range tr.Events {
		if ev.Run != snap.ID {
			t.Fatalf("foreign event in run trace: %+v", ev)
		}
	}

	// Cancel on a terminal run is a safe no-op that returns the snapshot.
	resp, body = do(t, "POST", ts.URL+"/api/runs/"+snap.ID+"/cancel", "")
	expectCode(t, resp, body, http.StatusOK)

	// The synchronous execute action also records its run id, addressable
	// through the same endpoints.
	resp, body = do(t, "POST", ts.URL+"/api/workflows/wc/execute", "")
	expectCode(t, resp, body, http.StatusOK)
	var exec struct {
		RunID string `json:"runId"`
	}
	if err := json.Unmarshal([]byte(body), &exec); err != nil || exec.RunID == "" {
		t.Fatalf("execute runId: %s", body)
	}
	resp, body = do(t, "GET", ts.URL+"/api/runs/"+exec.RunID, "")
	expectCode(t, resp, body, http.StatusOK)

	// Error paths.
	for _, c := range []struct {
		method, path string
		want         int
	}{
		{"GET", "/api/runs/run-999", http.StatusNotFound},
		{"DELETE", "/api/runs", http.StatusMethodNotAllowed},
		{"POST", "/api/runs/" + snap.ID + "/bogus", http.StatusMethodNotAllowed},
		{"POST", "/api/workflows/none/submit", http.StatusBadRequest},
	} {
		resp, body := do(t, c.method, ts.URL+c.path, "")
		if resp.StatusCode != c.want {
			t.Errorf("%s %s: status %d, want %d (%s)", c.method, c.path, resp.StatusCode, c.want, body)
		}
	}
}

func TestSubmitDemandParams(t *testing.T) {
	_, ts, _ := newTestServer(t)
	setupWordcount(t, ts)

	// Demand parameters must come as a pair of positive integers.
	for _, q := range []string{
		"?demandCores=2",
		"?demandMemMB=1024",
		"?demandCores=0&demandMemMB=1024",
		"?demandCores=2&demandMemMB=-1",
		"?demandCores=x&demandMemMB=1024",
	} {
		resp, body := do(t, "POST", ts.URL+"/api/workflows/wc/submit"+q, "")
		expectCode(t, resp, body, http.StatusBadRequest)
	}

	// A well-formed slice demand is accepted and the run completes on its
	// slice lease.
	resp, body := do(t, "POST", ts.URL+"/api/workflows/wc/submit?tenant=acme&demandCores=1&demandMemMB=1024", "")
	expectCode(t, resp, body, http.StatusAccepted)
	var snap struct {
		ID     string `json:"id"`
		Status string `json:"status"`
	}
	if err := json.Unmarshal([]byte(body), &snap); err != nil || snap.ID == "" {
		t.Fatalf("submit snapshot: %s", body)
	}
	deadline := time.Now().Add(10 * time.Second)
	for snap.Status != "succeeded" {
		if snap.Status == "failed" || snap.Status == "canceled" || time.Now().After(deadline) {
			t.Fatalf("demand run %s ended %s", snap.ID, snap.Status)
		}
		time.Sleep(time.Millisecond)
		resp, body = do(t, "GET", ts.URL+"/api/runs/"+snap.ID, "")
		expectCode(t, resp, body, http.StatusOK)
		if err := json.Unmarshal([]byte(body), &snap); err != nil {
			t.Fatal(err)
		}
	}
}

func TestFaultInjectionEndpoint(t *testing.T) {
	_, ts, _ := newTestServer(t)
	setupWordcount(t, ts)

	// Malformed JSON and unknown nodes are rejected.
	resp, body := do(t, "POST", ts.URL+"/api/faults", `{`)
	expectCode(t, resp, body, http.StatusBadRequest)
	resp, body = do(t, "POST", ts.URL+"/api/faults", `{"nodeCrashes":[{"node":"node99"}]}`)
	expectCode(t, resp, body, http.StatusBadRequest)

	// Out-of-range fields are rejected with the offending field named, so a
	// schedule that would inject nothing (or everything) is never armed.
	for _, c := range []struct{ payload, field string }{
		{`{"default":{"failProb":1.5}}`, "Default.FailProb"},
		{`{"perEngine":{"Spark":{"mtbfSec":-10}}}`, "PerEngine[Spark].MTBFSec"},
		{`{"outages":[{"engine":"Spark","atSec":-5}]}`, "Outages[0].AtSec"},
		{`{"straggler":{"prob":0.5,"factor":0.5}}`, "Straggler.Factor"},
	} {
		resp, body = do(t, "POST", ts.URL+"/api/faults", c.payload)
		expectCode(t, resp, body, http.StatusBadRequest)
		if !strings.Contains(body, c.field) {
			t.Errorf("400 body %q does not name the bad field %s", body, c.field)
		}
	}

	// Arm a schedule where every Java attempt fails. Retries exhaust, the
	// breaker trips Java, and the replan must land the work on Spark.
	cfg := `{"seed": 5, "perEngine": {"Java": {"failProb": 1}},
		"straggler": {"prob": 0, "factor": 3}}`
	resp, body = do(t, "POST", ts.URL+"/api/faults", cfg)
	expectCode(t, resp, body, http.StatusCreated)

	resp, body = do(t, "POST", ts.URL+"/api/workflows/wc/execute", `{"policy":"time"}`)
	expectCode(t, resp, body, http.StatusOK)

	resp, body = do(t, "GET", ts.URL+"/api/faults", "")
	expectCode(t, resp, body, http.StatusOK)
	var got struct {
		Stats struct {
			Transient int `json:"transient"`
		} `json:"stats"`
		BlacklistedEngines []string `json:"blacklistedEngines"`
		AvailableEngines   []string `json:"availableEngines"`
	}
	if err := json.Unmarshal([]byte(body), &got); err != nil {
		t.Fatalf("bad GET /api/faults body %q: %v", body, err)
	}
	if got.Stats.Transient < 2 {
		t.Fatalf("expected >= 2 transient injections, got %d: %s", got.Stats.Transient, body)
	}
	java := false
	for _, e := range got.BlacklistedEngines {
		if e == "Java" {
			java = true
		}
	}
	if !java {
		t.Fatalf("Java not circuit-broken after repeated failures: %s", body)
	}
	for _, e := range got.AvailableEngines {
		if e == "Java" {
			t.Fatalf("blacklisted engine still listed available: %s", body)
		}
	}

	resp, body = do(t, "DELETE", ts.URL+"/api/faults", "")
	expectCode(t, resp, body, http.StatusMethodNotAllowed)
}

// GET /api/cluster serves every node's record: health and the usage of its
// live containers, through a crash and its restore.
func TestClusterEndpointAgentState(t *testing.T) {
	_, ts, p := newTestServer(t)

	var dto struct {
		Nodes []struct {
			Node      string `json:"node"`
			Healthy   bool   `json:"healthy"`
			UsedCores int    `json:"usedCores"`
			UsedMemMB int    `json:"usedMemMB"`
		} `json:"nodes"`
		Checkpoints int `json:"checkpoints"`
	}
	get := func() {
		t.Helper()
		resp, body := do(t, "GET", ts.URL+"/api/cluster", "")
		expectCode(t, resp, body, http.StatusOK)
		dto.Nodes = nil
		if err := json.Unmarshal([]byte(body), &dto); err != nil {
			t.Fatalf("bad /api/cluster body %q: %v", body, err)
		}
	}
	get()
	if len(dto.Nodes) == 0 {
		t.Fatal("no nodes in /api/cluster")
	}
	for _, n := range dto.Nodes {
		if !n.Healthy || n.UsedCores != 0 || n.UsedMemMB != 0 {
			t.Fatalf("fresh cluster node: %+v", n)
		}
	}
	if dto.Checkpoints != 0 {
		t.Fatalf("fresh cluster holds %d checkpoints", dto.Checkpoints)
	}

	ctrs, err := p.Cluster.AllocateIn(nil, 1, 2, 1024)
	if err != nil {
		t.Fatal(err)
	}
	victim := ctrs[0].NodeName
	get()
	for _, n := range dto.Nodes {
		if want := n.Node == victim; (n.UsedCores == 2 && n.UsedMemMB == 1024) != want {
			t.Fatalf("node state after one (2c,1024MB) container on %s: %+v", victim, n)
		}
	}

	if err := p.Cluster.FailNode(victim, 0); err != nil {
		t.Fatal(err)
	}
	get()
	for _, n := range dto.Nodes {
		if n.Node == victim && (n.Healthy || n.UsedCores != 0 || n.UsedMemMB != 0) {
			t.Fatalf("crashed node state: %+v", n)
		}
	}

	if err := p.Cluster.RestoreNode(victim); err != nil {
		t.Fatal(err)
	}
	get()
	for _, n := range dto.Nodes {
		if !n.Healthy {
			t.Fatalf("restored cluster node: %+v", n)
		}
	}
}

// GET /api/cluster reads a snapshot of the nodes taken under the cluster's
// lock, so polling it while a workflow allocates and releases containers is
// race-free (run under -race in CI).
func TestClusterEndpointDuringExecution(t *testing.T) {
	_, ts, _ := newTestServer(t)
	setupWordcount(t, ts)

	done := make(chan struct{})
	polled := make(chan int)
	go func() {
		n := 0
		for {
			select {
			case <-done:
				polled <- n
				return
			default:
			}
			resp, err := http.Get(ts.URL + "/api/cluster")
			if err != nil {
				t.Error(err)
				polled <- n
				return
			}
			resp.Body.Close()
			n++
		}
	}()
	for i := 0; i < 3; i++ {
		resp, body := do(t, "POST", ts.URL+"/api/workflows/wc/execute", "")
		expectCode(t, resp, body, http.StatusOK)
	}
	close(done)
	if n := <-polled; n == 0 {
		t.Fatal("/api/cluster was never read during the executions")
	}
}

// Every request body the server reads is bounded: one byte over the limit is
// answered with 413 and the usual {"error": …} shape — never cut to size and
// accepted — and nothing is registered, profiled, toggled or armed. Each body
// is valid up to the limit (a description with one long property, JSON
// followed by blanks), so a server that truncated or stopped reading early
// would have accepted it.
func TestBodyLimit(t *testing.T) {
	_, ts, p := newTestServer(t)
	pad := func(body, fill string, size int) string {
		return body + strings.Repeat(fill, size-len(body))
	}
	resp, body := do(t, "POST", ts.URL+"/api/operators/small", wordcountJava)
	expectCode(t, resp, body, http.StatusCreated)

	// At the limit a body is still served whole.
	resp, body = do(t, "POST", ts.URL+"/api/operators/atlimit", pad(wordcountJava+"Optimization.pad=", "x", maxBodyBytes))
	expectCode(t, resp, body, http.StatusCreated)

	const over = maxBodyBytes + 1
	pendingEvents := p.Clock.Pending()
	for _, c := range []struct {
		path, body string
		untouched  func() bool
	}{
		{"/api/operators/big", pad(wordcountJava+"Optimization.pad=", "x", over), func() bool {
			_, ok := p.Library.Operator("big")
			return !ok
		}},
		{"/api/datasets/big", pad("Constraints.Engine.FS=HDFS\nOptimization.pad=", "x", over), func() bool {
			_, ok := p.Library.Dataset("big")
			return !ok
		}},
		{"/api/abstractOperators/big", pad("Constraints.OpSpecification.Algorithm.name=", "x", over), nil},
		{"/api/workflows/big", pad("small,$$target", "\n", over), func() bool {
			resp, _ := do(t, "GET", ts.URL+"/api/workflows/big", "")
			return resp.StatusCode == http.StatusNotFound
		}},
		{"/api/operators/small/profile", pad(`{"records":[1000],"bytesPerRecord":1000,"resources":[{"nodes":1,"coresPerNode":2,"memMBPerNode":3456}]}`, " ", over), func() bool {
			_, profiled := p.Profiler.Models("small")
			return !profiled
		}},
		{"/api/engines/Spark/availability", pad(`{"on":false}`, " ", over), func() bool {
			return p.Env.Available(ires.EngineSpark)
		}},
		{"/api/faults", pad(`{"nodeCrashes":[{"node":"node1","atSec":50}]}`, " ", over), func() bool {
			return p.Clock.Pending() == pendingEvents // an armed crash is a clock event
		}},
	} {
		resp, body := do(t, "POST", ts.URL+c.path, c.body)
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("POST %s with %d bytes: status %d, want 413 (%s)", c.path, len(c.body), resp.StatusCode, body)
		}
		var msg map[string]string
		if err := json.Unmarshal([]byte(body), &msg); err != nil || msg["error"] == "" {
			t.Errorf("POST %s: 413 body %q is not the error shape", c.path, body)
		}
		if c.untouched != nil && !c.untouched() {
			t.Errorf("POST %s: refused with %d but took effect anyway", c.path, resp.StatusCode)
		}
	}
}
