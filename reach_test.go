package ires

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// reachLedger lists the exported identifiers under internal/ that are kept
// although no non-test code refers to them, each with its reason. The ledger
// is exact: an entry that gains a caller, or no longer exists, fails the test.
var reachLedger = map[string]string{
	// Pinned behaviour and reproduced mechanisms.
	"cluster.Cluster.ResizeSlice":        "the scheduler storm resizes leases through it; deleting it moves the 48 pinned storm digests",
	"cluster.Cluster.SetHealthScript":    "the YARN node health script is a reproduced mechanism (DESIGN.md) that no platform option arms yet",
	"musqle.NewCalibrator":               "MuSQLE's cost-API calibration is a reproduced mechanism (DESIGN.md) that no cell runs yet",
	"musqle.Calibrator.ObserveExecution": "MuSQLE's cost-API calibration is a reproduced mechanism (DESIGN.md) that no cell runs yet",
	"scheduler.Scheduler.CheckIndex":     "oracle: checks every incremental scheduler structure against a from-scratch rebuild in the storm tests",
	"experiments.PlanPegasus":            "the Fig 14-15 planning unit that BenchmarkPlannerMontage1000 times",
	"server.Server.Handler":              "the REST tests serve it through httptest; ListenAndServe mounts the same mux",
	"cluster.Cluster.SetNodeHealth":      "failure injection that flips health without losing containers; placement, monitor and restore tests use it",
	"metadata.FromProperties":            "the programmatic form of a description file; the metadata round-trip and matching tests build trees with it",
	// Observation points that tests of other behaviour read.
	"cluster.Cluster.ReservedNodes":        "observation point that the lease, preemption and storm tests read",
	"cluster.Cluster.ReservedSlices":       "observation point that the elastic-lease and oversubscription tests read",
	"cluster.Cluster.LiveContainers":       "observation point that the container-accounting tests read",
	"cluster.Reservation.Released":         "observation point that the elastic-lease and storm tests read",
	"cluster.Monitor.Ticks":                "observation point that the monitor-poll tests read",
	"cluster.Monitor.NodeHealthy":          "observation point that the monitor-poll oracle compares",
	"cluster.Monitor.ServiceOn":            "observation point that the monitor-poll oracle compares",
	"vtime.Clock.Pending":                  "observation point that the clock, monitor and server tests read",
	"vtime.Clock.Parties":                  "observation point that the party and scheduler tests read",
	"profiler.OperatorModels.ChosenFamily": "observation point that the model-selection tests read",
	"profiler.Profiler.Feasible":           "observation point that the feasibility-wall tests read",
	"scheduler.Scheduler.ActiveRuns":       "observation point that the scheduler tests read",
	"scheduler.Scheduler.SuspendedRuns":    "observation point that the preemption tests read",
	"metadata.MatchReason":                 "observation point that the matching tests read",
	"metadata.Tree.Equal":                  "observation point that the parse round-trip tests compare with",
	"metadata.Tree.Properties":             "observation point that the parse round-trip tests read",
	"musqle.Query.SQL":                     "the parser's rendering, which FuzzParse's round-trip property compares",
	"experiments.Report.SeriesByLabel":     "observation point that the figure-shape tests read",
}

// reachStdMethods are method names that satisfy interfaces of the standard
// library (or of the runtime's formatting and sorting), which the module's
// own interface declarations do not name.
var reachStdMethods = map[string]bool{
	"Error": true, "String": true, "Unwrap": true, "Is": true, "As": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
	"Int63": true, "Uint64": true, "Seed": true,
	"ServeHTTP": true, "MarshalJSON": true, "UnmarshalJSON": true,
	"Read": true, "Write": true, "Close": true,
}

// TestEveryInternalExportHasACaller fails on every exported function,
// method, type, constant and variable declared under internal/ that no
// non-test file of the module refers to, outside the reachLedger. A name only
// tests reach is surface no workload or cell exercises.
func TestEveryInternalExportHasACaller(t *testing.T) {
	m, err := parseModule(".")
	if err != nil {
		t.Fatal(err)
	}
	unreached := map[string]string{} // key -> position
	for _, d := range m.decls {
		if !m.reached(d) {
			unreached[d.key] = d.pos
		}
	}
	var keys []string
	for k := range unreached {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if _, ok := reachLedger[k]; !ok {
			t.Errorf("%s: %s is exported but no non-test code refers to it; delete it, or give reachLedger a reason", unreached[k], k)
		}
	}
	declared := map[string]bool{}
	for _, d := range m.decls {
		declared[d.key] = true
	}
	for k, reason := range reachLedger {
		switch {
		case strings.TrimSpace(reason) == "":
			t.Errorf("reachLedger entry %s has no reason", k)
		case !declared[k]:
			t.Errorf("reachLedger entry %s no longer exists; drop it", k)
		case unreached[k] == "":
			t.Errorf("reachLedger entry %s now has a non-test caller; drop it", k)
		}
	}
}

// exportDecl is one exported declaration under internal/.
type exportDecl struct {
	key        string // package.Name or package.Type.Method
	name       string
	method     bool
	dir        string // package directory, slash-separated
	pos        string // file:line, for messages
	begin, end token.Pos
}

type moduleRefs struct {
	decls []exportDecl
	// bare[dir][name]: unqualified identifiers of non-test files per package.
	bare map[string]map[string][]token.Pos
	// qualified[importPath][name]: pkg.Name references.
	qualified map[string]map[string][]token.Pos
	// sel[name]: x.Name selectors on values or types, anywhere.
	sel map[string][]token.Pos
	// ifaceMethods names every method of an interface declared in the module.
	ifaceMethods map[string]bool
	modPath      string
}

// reached reports whether something outside d's own declaration refers to d.
func (m *moduleRefs) reached(d exportDecl) bool {
	outside := func(ps []token.Pos) bool {
		for _, p := range ps {
			if p < d.begin || p >= d.end {
				return true
			}
		}
		return false
	}
	if d.method {
		return m.ifaceMethods[d.name] || reachStdMethods[d.name] || outside(m.sel[d.name])
	}
	return outside(m.bare[d.dir][d.name]) || outside(m.qualified[m.modPath+"/"+d.dir][d.name])
}

// parseModule parses every non-test Go file under root (skipping testdata
// and hidden directories) and indexes its exported declarations under
// internal/ and every reference that could reach one.
func parseModule(root string) (*moduleRefs, error) {
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	m := &moduleRefs{
		bare:         map[string]map[string][]token.Pos{},
		qualified:    map[string]map[string][]token.Pos{},
		sel:          map[string][]token.Pos{},
		ifaceMethods: map[string]bool{},
		modPath:      modPath,
	}
	fset := token.NewFileSet()
	err = filepath.WalkDir(root, func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := e.Name()
		if e.IsDir() {
			if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		m.index(fset, filepath.ToSlash(rel), f)
		return nil
	})
	return m, err
}

func (m *moduleRefs) index(fset *token.FileSet, dir string, f *ast.File) {
	if dir == "internal" || strings.HasPrefix(dir, "internal/") {
		m.collectDecls(fset, dir, f)
	}
	imports := map[string]string{} // local name -> import path
	for _, is := range f.Imports {
		p, _ := strconv.Unquote(is.Path.Value)
		local := p[strings.LastIndex(p, "/")+1:]
		if is.Name != nil {
			local = is.Name.Name
		}
		imports[local] = p
	}
	if m.bare[dir] == nil {
		m.bare[dir] = map[string][]token.Pos{}
	}
	// declaring holds the identifiers that declare rather than refer: names
	// of declarations, fields and parameters. Inspect visits a node before
	// its children, so a name is marked before it is reached.
	declaring := map[*ast.Ident]bool{}
	var visit func(n ast.Node) bool
	visit = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			declaring[n.Name] = true
		case *ast.TypeSpec:
			declaring[n.Name] = true
		case *ast.ValueSpec:
			for _, id := range n.Names {
				declaring[id] = true
			}
		case *ast.Field:
			for _, id := range n.Names {
				declaring[id] = true
			}
		case *ast.InterfaceType:
			for _, fl := range n.Methods.List {
				for _, id := range fl.Names {
					m.ifaceMethods[id.Name] = true
				}
			}
		case *ast.SelectorExpr:
			if x, ok := n.X.(*ast.Ident); ok {
				if p, ok := imports[x.Name]; ok {
					if m.qualified[p] == nil {
						m.qualified[p] = map[string][]token.Pos{}
					}
					m.qualified[p][n.Sel.Name] = append(m.qualified[p][n.Sel.Name], n.Sel.Pos())
					return false
				}
			}
			m.sel[n.Sel.Name] = append(m.sel[n.Sel.Name], n.Sel.Pos())
			ast.Inspect(n.X, visit)
			return false
		case *ast.Ident:
			if !declaring[n] {
				m.bare[dir][n.Name] = append(m.bare[dir][n.Name], n.Pos())
			}
		}
		return true
	}
	ast.Inspect(f, visit)
}

func (m *moduleRefs) collectDecls(fset *token.FileSet, dir string, f *ast.File) {
	pkg := dir[strings.LastIndex(dir, "/")+1:]
	add := func(key, name string, method bool, id *ast.Ident, span ast.Node) {
		if !id.IsExported() {
			return
		}
		p := fset.Position(id.Pos())
		m.decls = append(m.decls, exportDecl{
			key: key, name: name, method: method, dir: dir,
			pos:   fmt.Sprintf("%s:%d", filepath.ToSlash(p.Filename), p.Line),
			begin: span.Pos(), end: span.End(),
		})
	}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				add(pkg+"."+d.Name.Name, d.Name.Name, false, d.Name, d)
				continue
			}
			add(pkg+"."+receiverName(d.Recv.List[0].Type)+"."+d.Name.Name, d.Name.Name, true, d.Name, d)
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					add(pkg+"."+s.Name.Name, s.Name.Name, false, s.Name, s)
				case *ast.ValueSpec:
					for _, id := range s.Names {
						add(pkg+"."+id.Name, id.Name, false, id, s)
					}
				}
			}
		}
	}
}

// receiverName is the type name of a method receiver: T, *T, T[P] or *T[P].
func receiverName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return "?"
		}
	}
}

// modulePath reads the module line of a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("%s: no module line", gomod)
}
