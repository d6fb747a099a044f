package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	ires "github.com/asap-project/ires"
	"github.com/asap-project/ires/internal/engine"
)

// expectAPIError checks the shape every /api error answer has: JSON with a
// non-empty "error".
func expectAPIError(t *testing.T, resp *http.Response, body string) {
	t.Helper()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("%s %s: content type %q, want application/json (%s)", resp.Request.Method, resp.Request.URL.Path, ct, body)
	}
	var msg map[string]string
	if err := json.Unmarshal([]byte(body), &msg); err != nil || msg["error"] == "" {
		t.Errorf("%s %s: body %q is not the error shape", resp.Request.Method, resp.Request.URL.Path, body)
	}
}

// A request the route table has no row for — a known path under another
// method, a missing name, an unknown path — is a JSON 405 naming the method
// and path.
func TestUnroutedAPIRequestsAre405(t *testing.T) {
	_, ts, _ := newTestServer(t)
	for _, c := range []struct{ method, path string }{
		{"GET", "/api/abstractOperators/wordcount"},
		{"GET", "/api/engines/Spark/availability"},
		{"GET", "/api/operators/"},
		{"GET", "/api/nosuch"},
		{"POST", "/api/runs/run-1/bogus"},
		{"DELETE", "/api/faults"},
	} {
		resp, body := do(t, c.method, ts.URL+c.path, "")
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("%s %s: status %d, want 405 (%s)", c.method, c.path, resp.StatusCode, body)
		}
		expectAPIError(t, resp, body)
		if want := "unsupported " + c.method + " " + c.path; !strings.Contains(body, want) {
			t.Errorf("%s %s: body %q does not say %q", c.method, c.path, body, want)
		}
	}
	// Outside /api the mux's own answers stand.
	resp, body := do(t, "POST", ts.URL+"/", "")
	expectCode(t, resp, body, http.StatusMethodNotAllowed)
	resp, body = do(t, "POST", ts.URL+"/metrics", "")
	expectCode(t, resp, body, http.StatusMethodNotAllowed)
}

// A wordcount workflow no registered operator implements does not plan; its
// execute answers 400 like its materialize does.
func TestExecuteUnplannableIs400(t *testing.T) {
	_, ts, _ := newTestServer(t)
	resp, body := do(t, "POST", ts.URL+"/api/datasets/logs",
		"Constraints.Engine.FS=HDFS\nExecution.path=hdfs:///logs\nOptimization.documents=50000\nOptimization.size=50000000")
	expectCode(t, resp, body, http.StatusCreated)
	resp, body = do(t, "POST", ts.URL+"/api/abstractOperators/wordcount",
		"Constraints.OpSpecification.Algorithm.name=wordcount")
	expectCode(t, resp, body, http.StatusCreated)
	resp, body = do(t, "POST", ts.URL+"/api/workflows/wc", "logs,wordcount,0\nwordcount,d1,0\nd1,$$target\n")
	expectCode(t, resp, body, http.StatusCreated)
	for _, action := range []string{"materialize", "execute"} {
		resp, body = do(t, "POST", ts.URL+"/api/workflows/wc/"+action, "")
		expectCode(t, resp, body, http.StatusBadRequest)
		expectAPIError(t, resp, body)
	}
}

// A workflow over 10^14 documents plans, but its attempt would end past the
// virtual-time horizon: the request's own dataset sizes caused the failure,
// so execute answers 400 naming the horizon, not 500.
func TestExecutePastTheHorizonIs400(t *testing.T) {
	_, ts, _ := newTestServer(t)
	setupWordcount(t, ts)
	resp, body := do(t, "POST", ts.URL+"/api/datasets/logs",
		"Constraints.Engine.FS=HDFS\nExecution.path=hdfs:///logs\nOptimization.documents=100000000000000\nOptimization.size=100000000000000000")
	expectCode(t, resp, body, http.StatusCreated)
	resp, body = do(t, "POST", ts.URL+"/api/workflows/wc/execute", "")
	expectCode(t, resp, body, http.StatusBadRequest)
	expectAPIError(t, resp, body)
	if !strings.Contains(body, "virtual-time horizon") {
		t.Fatalf("execute past the horizon: %s; want the horizon named", body)
	}
}

// A dataset that declares a size no int64 holds does not plan: materialize
// and execute answer 400 naming the dataset and the value, where the size
// used to wrap to a negative one.
func TestWrappingDatasetSizeIs400(t *testing.T) {
	_, ts, _ := newTestServer(t)
	setupWordcount(t, ts)
	resp, body := do(t, "POST", ts.URL+"/api/datasets/logs",
		"Constraints.Engine.FS=HDFS\nExecution.path=hdfs:///logs\nOptimization.documents=1000\nOptimization.size=1e19")
	expectCode(t, resp, body, http.StatusCreated)
	for _, action := range []string{"materialize", "execute"} {
		resp, body = do(t, "POST", ts.URL+"/api/workflows/wc/"+action, "")
		expectCode(t, resp, body, http.StatusBadRequest)
		expectAPIError(t, resp, body)
		if !strings.Contains(body, "dataset logs declares Optimization.size=1e19") {
			t.Fatalf("%s over a 1e19-byte dataset: %s; want the dataset and the value named", action, body)
		}
	}
}

// Empty listings are JSON arrays, never null.
func TestEmptyListsAreArrays(t *testing.T) {
	_, ts, p := newTestServer(t)
	resp, body := do(t, "GET", ts.URL+"/api/operators", "")
	expectCode(t, resp, body, http.StatusOK)
	if strings.TrimSpace(body) != "[]" {
		t.Errorf("operators of a fresh platform = %q, want []", body)
	}
	resp, body = do(t, "GET", ts.URL+"/api/workflows", "")
	expectCode(t, resp, body, http.StatusOK)
	if strings.TrimSpace(body) != "[]" {
		t.Errorf("workflows of a fresh platform = %q, want []", body)
	}
	p.Env = engine.NewEnvironment(engine.Infrastructure{}, 1)
	resp, body = do(t, "GET", ts.URL+"/api/engines", "")
	expectCode(t, resp, body, http.StatusOK)
	if strings.TrimSpace(body) != "[]" {
		t.Errorf("engines of an environment with none = %q, want []", body)
	}
}

// apiWords are the path segments of the route table and names the fuzz
// platform has registered; a selector past them stands for the input's junk
// segment.
var apiWords = []string{
	"api", "operators", "datasets", "abstractOperators", "workflows", "runs",
	"engines", "faults", "cluster", "profile", "materialize", "pareto",
	"execute", "submit", "trace", "cancel", "availability", "metrics",
	"healthz", "web", "main", "Spark", "LineCount_java", "textData",
	"LineCount", "LineCountWorkflow", "TextClustering", "run-001", "",
}

var apiMethods = []string{"GET", "POST", "PUT", "DELETE", "HEAD", "PATCH", "OPTIONS"}

// FuzzAPI sends one request to a fresh server over a platform preloaded with
// testdata/asapLibrary: a fuzzed method, a path of route-table segments and
// junk, a query and a body. Nothing may panic or answer 5xx, and every /api
// answer of 400 or more is JSON with a non-empty "error".
func FuzzAPI(f *testing.F) {
	seg := func(words ...string) []byte {
		var b []byte
		for _, w := range words {
			for i, aw := range apiWords {
				if aw == w {
					b = append(b, byte(i))
				}
			}
		}
		return b
	}
	f.Add(uint8(0), seg("api", "operators"), "", "", "")
	f.Add(uint8(1), seg("api", "operators", "x"), "", "", "Constraints.Engine=Java\n")
	f.Add(uint8(1), append(seg("api", "operators"), 255), "x", "", "Constraints.Engine=Java\n")
	f.Add(uint8(1), seg("api", "operators", "LineCount_java", "profile"), "", "",
		`{"records":[1000],"bytesPerRecord":100,"resources":[{"nodes":1,"coresPerNode":2,"memMBPerNode":1024}]}`)
	f.Add(uint8(1), seg("api", "workflows", "LineCountWorkflow", "submit"), "", "tenant=a&user=u&deadlineSec=40&demandCores=1&demandMemMB=512", "")
	f.Add(uint8(1), seg("api", "workflows", "LineCountWorkflow", "submit"), "", "deadlineSec=NaN", "")
	f.Add(uint8(1), seg("api", "workflows", "LineCountWorkflow", "submit"), "", "deadlineSec=Inf", "")
	f.Add(uint8(1), seg("api", "workflows", "LineCountWorkflow", "execute"), "", "", "")
	f.Add(uint8(1), seg("api", "datasets", "textData"), "", "", "Execution.path=hdfs:///x\nOptimization.size=1e19")
	f.Add(uint8(1), seg("api", "datasets", "textData"), "", "", "Execution.path=hdfs:///x\nOptimization.documents=NaN")
	f.Add(uint8(1), seg("api", "datasets", "textData"), "", "", "Execution.path=hdfs:///x\nOptimization.documents=-1e400")
	f.Add(uint8(1), seg("api", "workflows", "TextClustering", "pareto"), "", "", "")
	f.Add(uint8(0), seg("api", "runs", "run-001", "trace"), "", "", "")
	f.Add(uint8(1), seg("api", "engines", "Spark", "availability"), "", "", `{"on":false}`)
	f.Add(uint8(1), seg("api", "faults"), "", "", `{"seed":5,"default":{"failProb":0.3},"outages":[{"engine":"Spark","atSec":1}]}`)
	f.Add(uint8(1), seg("api", "faults"), "", "", `{"outages":[{"engine":"Spark","atSec":9.3e9}]}`)
	f.Add(uint8(1), seg("api", "faults"), "", "", `{"nodeCrashes":[{"node":"node1","atSec":1e300}]}`)
	f.Add(uint8(3), seg("api", "cluster"), "", "", "")
	f.Add(uint8(0), seg("metrics"), "", "", "")
	f.Fuzz(func(t *testing.T, method uint8, segs []byte, junk, query, body string) {
		if len(segs) > 6 {
			segs = segs[:6]
		}
		parts := make([]string, len(segs))
		for i, b := range segs {
			if int(b) < len(apiWords) {
				parts[i] = apiWords[b]
			} else {
				parts[i] = junk
			}
		}
		p, err := ires.NewPlatform(ires.Options{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		s := New(p)
		if err := s.PreloadLibrary("../../testdata/asapLibrary"); err != nil {
			t.Fatal(err)
		}
		req := httptest.NewRequest(http.MethodGet, "/", strings.NewReader(body))
		req.Method = apiMethods[int(method)%len(apiMethods)]
		req.URL.Path = "/" + strings.Join(parts, "/")
		req.URL.RawQuery = query
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, req)
		p.Drain()

		resp := rec.Result()
		if resp.StatusCode >= 500 {
			t.Fatalf("%s %s?%s: status %d: %s", req.Method, req.URL.Path, query, resp.StatusCode, rec.Body)
		}
		if !strings.HasPrefix(req.URL.Path, "/api/") || resp.StatusCode < 400 {
			return
		}
		raw, _ := io.ReadAll(resp.Body)
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Fatalf("%s %s: status %d with content type %q: %s", req.Method, req.URL.Path, resp.StatusCode, ct, raw)
		}
		var msg map[string]string
		if err := json.Unmarshal(raw, &msg); err != nil || msg["error"] == "" {
			t.Fatalf("%s %s: status %d body %q is not the error shape", req.Method, req.URL.Path, resp.StatusCode, raw)
		}
	})
}
