package ires

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// reachLedger lists the exported identifiers under internal/ that are kept
// although no non-test code refers to them, each with its reason. The ledger
// is exact: an entry that gains a caller, or no longer exists, fails the test.
var reachLedger = map[string]string{
	// Pinned behaviour and reproduced mechanisms.
	"cluster.Cluster.ResizeSlice":        "the scheduler storm resizes leases through it; deleting it moves the 48 pinned storm digests",
	"musqle.NewCalibrator":               "MuSQLE's cost-API calibration is a reproduced mechanism (DESIGN.md) that no cell runs yet",
	"musqle.Calibrator.ObserveExecution": "MuSQLE's cost-API calibration is a reproduced mechanism (DESIGN.md) that no cell runs yet",
	"scheduler.Scheduler.CheckIndex":     "oracle: checks every incremental scheduler structure against a from-scratch rebuild in the storm tests",
	"experiments.PlanPegasus":            "the Fig 14-15 planning unit that BenchmarkPlannerMontage1000 times",
	"server.Server.Handler":              "the REST tests serve it through httptest; ListenAndServe mounts the same mux",
	"cluster.Cluster.SetNodeHealth":      "failure injection that flips health without losing containers; placement, monitor and restore tests use it",
	"metadata.FromProperties":            "the programmatic form of a description file; the metadata round-trip and matching tests build trees with it",
	"vtime.Clock.Advance":                "the clock, cluster and faults tests fire scheduled events from one goroutine with it; every run drives the clock as a party",
	// Observation points that tests of other behaviour read.
	"cluster.Cluster.ReservedNodes":        "observation point that the lease, preemption and storm tests read; it counts the per-node slice refcounts CheckInvariants recounts",
	"cluster.Cluster.ReservedSlices":       "observation point that the elastic-lease and oversubscription tests read; it sums the per-node slice books CheckInvariants recounts",
	"cluster.Cluster.LiveContainers":       "observation point that the container-accounting tests read",
	"cluster.Reservation.Released":         "observation point that the elastic-lease and storm tests read",
	"cluster.Reservation.Nodes":            "observation point that the lease and grow/shrink tests read",
	"musqle.Calibrator.Engines":            "observation point that the cost-API calibration tests read",
	"musqle.Calibrator.SampleCount":        "observation point that the cost-API calibration tests read",
	"cluster.Monitor.Ticks":                "observation point that the monitor-poll tests read",
	"cluster.Monitor.NodeHealthy":          "observation point that the monitor-poll oracle compares; it scans the node list for the board entry",
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
// tests reach is surface no workload or cell exercises. References are
// resolved by the type checker, so a method is reached by a call on its own
// type (or on an interface its type implements), not by a call on another
// type's method of the same name.
func TestEveryInternalExportHasACaller(t *testing.T) {
	m, err := loadModule(".")
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
	obj        types.Object
	pos        string // file:line, for messages
	begin, end token.Pos
}

type moduleRefs struct {
	decls []exportDecl
	// uses[obj]: every reference to obj in a non-test file; a method of a
	// generic type is referred to by its origin.
	uses map[types.Object][]token.Pos
	// ifaceCalls[name]: the interfaces (a type parameter's constraint among
	// them) whose method name some non-test file selects.
	ifaceCalls map[string][]*types.Interface
}

// reached reports whether something outside d's own declaration refers to d.
func (m *moduleRefs) reached(d exportDecl) bool {
	for _, p := range m.uses[d.obj] {
		if p < d.begin || p >= d.end {
			return true
		}
	}
	fn, ok := d.obj.(*types.Func)
	if !ok || fn.Type().(*types.Signature).Recv() == nil {
		return false
	}
	if reachStdMethods[fn.Name()] {
		return true
	}
	// A call through an interface reaches the method of every type that
	// implements it, by value or by pointer.
	recv := fn.Type().(*types.Signature).Recv().Type()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	for _, iface := range m.ifaceCalls[fn.Name()] {
		if types.Implements(recv, iface) || types.Implements(types.NewPointer(recv), iface) {
			return true
		}
	}
	return false
}

// loadModule parses and type-checks every non-test Go file under root
// (skipping testdata and hidden directories), indexes its exported
// declarations under internal/ and resolves every reference. The standard
// library is type-checked from source.
func loadModule(root string) (*moduleRefs, error) {
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	l := &moduleLoader{
		fset:  fset,
		files: map[string][]*ast.File{},
		pkgs:  map[string]*types.Package{},
		std:   importer.ForCompiler(fset, "source", nil),
		info:  &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}},
	}
	l.conf = types.Config{Importer: l}
	m := &moduleRefs{uses: map[types.Object][]token.Pos{}, ifaceCalls: map[string][]*types.Interface{}}
	var internal []*ast.File // declaring files, in walk order
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
		dir := filepath.ToSlash(filepath.Dir(path))
		importPath := modPath
		if dir != "." {
			importPath += "/" + dir
		}
		l.files[importPath] = append(l.files[importPath], f)
		if dir == "internal" || strings.HasPrefix(dir, "internal/") {
			internal = append(internal, f)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for path := range l.files {
		if _, err := l.Import(path); err != nil {
			return nil, err
		}
	}
	for _, f := range internal {
		m.collectDecls(fset, l.info, f)
	}
	for id, obj := range l.info.Uses {
		fn, ok := obj.(*types.Func)
		if !ok {
			m.uses[obj] = append(m.uses[obj], id.Pos())
			continue
		}
		fn = fn.Origin()
		m.uses[fn] = append(m.uses[fn], id.Pos())
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			if iface, ok := recv.Type().Underlying().(*types.Interface); ok {
				m.ifaceCalls[fn.Name()] = append(m.ifaceCalls[fn.Name()], iface)
			}
		}
	}
	return m, nil
}

// moduleLoader type-checks the module's packages on first import, in
// dependency order, recording every package's definitions and uses in one
// types.Info; any other import path is the standard library's.
type moduleLoader struct {
	fset  *token.FileSet
	files map[string][]*ast.File // by import path
	pkgs  map[string]*types.Package
	std   types.Importer
	conf  types.Config
	info  *types.Info
}

func (l *moduleLoader) Import(path string) (*types.Package, error) {
	files, ok := l.files[path]
	if !ok {
		return l.std.Import(path)
	}
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	p, err := l.conf.Check(path, l.fset, files, l.info)
	l.pkgs[path] = p
	return p, err
}

// collectDecls indexes the exported declarations of one file under
// internal/, each with the object it defines.
func (m *moduleRefs) collectDecls(fset *token.FileSet, info *types.Info, f *ast.File) {
	pkg := f.Name.Name
	add := func(key string, id *ast.Ident, span ast.Node) {
		if !id.IsExported() {
			return
		}
		p := fset.Position(id.Pos())
		m.decls = append(m.decls, exportDecl{
			key: key, obj: info.Defs[id],
			pos:   fmt.Sprintf("%s:%d", filepath.ToSlash(p.Filename), p.Line),
			begin: span.Pos(), end: span.End(),
		})
	}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				add(pkg+"."+d.Name.Name, d.Name, d)
				continue
			}
			add(pkg+"."+receiverName(d.Recv.List[0].Type)+"."+d.Name.Name, d.Name, d)
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					add(pkg+"."+s.Name.Name, s.Name, s)
				case *ast.ValueSpec:
					for _, id := range s.Names {
						add(pkg+"."+id.Name, id, s)
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
