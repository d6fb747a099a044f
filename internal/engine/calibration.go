package engine

// Calibrated engine and workload profiles. The constants below are the
// simulation's substitute for the paper's 16-VM OpenStack deployment
// (Hadoop 2.7, Spark 1.6, Hama 0.7, scikit-learn 0.17, MemSQL 5.0,
// Postgres 9.5 — D3.3 §4). They are chosen so the qualitative regimes of
// Figures 11-13 hold:
//
//   - Java/scikit/Postgres (centralized) win for small inputs: negligible
//     startup, high per-core rate, but no scale-out and a single node's RAM.
//   - Hama/MemSQL (distributed in-memory) win mid-range: moderate startup,
//     aggregate-memory working sets, but OOM once the cluster RAM is
//     exceeded (Hama at ~100M edges, MemSQL at ~2GB of joined tables).
//   - Spark/MapReduce (distributed, disk-backed) pay tens of seconds of
//     startup and per-wave overhead but never run out of memory and scale
//     with total cores.

// Engine names used across the repository.
const (
	EngineJava       = "Java"
	EngineSpark      = "Spark"
	EngineHama       = "Hama"
	EngineMapReduce  = "MapReduce"
	EngineScikit     = "scikit"
	EnginePostgreSQL = "PostgreSQL"
	EngineMemSQL     = "MemSQL"
	EngineHive       = "Hive"
	EnginePython     = "Python"
	EngineCilk       = "Cilk"
	EngineMLlib      = "MLlib" // Spark's ML library, deployed as its own service
)

// Datastore / filesystem names.
const (
	FSHDFS     = "HDFS"
	FSLocal    = "LFS"
	FSPostgres = "PostgreSQL"
	FSMemSQL   = "MemSQL"
)

// StandardCluster mirrors the paper's evaluation cluster: 16 VMs, 32 cores
// and 54GB RAM in total (D3.3 §4.4).
var StandardCluster = Resources{Nodes: 16, CoresPerN: 2, MemMBPerN: 3456}

// SingleNode is one VM of the standard cluster, the slice centralized
// engines run on.
var SingleNode = Resources{Nodes: 1, CoresPerN: 2, MemMBPerN: 3456}

// DefaultProfiles returns the calibrated engine profiles.
func DefaultProfiles() []Profile {
	return []Profile{
		{
			Name: EngineJava, Centralized: true, InMemory: true,
			StartupSec: 1.0, PerTaskSec: 0, RateUnitsPS: 2.0e6,
			SerialFrac: 1.0, DiskBound: 0.15, MemOverhead: 1.0, FS: FSLocal,
		},
		{
			Name: EngineSpark, Centralized: false, InMemory: false,
			StartupSec: 12.0, PerTaskSec: 1.0, RateUnitsPS: 1.0e6,
			SerialFrac: 0.05, DiskBound: 0.35, MemOverhead: 1.0, FS: FSHDFS,
		},
		{
			Name: EngineMLlib, Centralized: false, InMemory: false,
			StartupSec: 14.0, PerTaskSec: 1.0, RateUnitsPS: 1.0e6,
			SerialFrac: 0.05, DiskBound: 0.35, MemOverhead: 1.0, FS: FSHDFS,
		},
		{
			Name: EngineHama, Centralized: false, InMemory: true,
			StartupSec: 6.0, PerTaskSec: 0.5, RateUnitsPS: 1.2e6,
			SerialFrac: 0.08, DiskBound: 0.05, MemOverhead: 2.0, FS: FSHDFS,
		},
		{
			Name: EngineMapReduce, Centralized: false, InMemory: false,
			StartupSec: 16.0, PerTaskSec: 2.0, RateUnitsPS: 0.6e6,
			SerialFrac: 0.05, DiskBound: 0.7, MemOverhead: 1.0, FS: FSHDFS,
		},
		{
			Name: EngineScikit, Centralized: true, InMemory: true,
			StartupSec: 0.5, PerTaskSec: 0, RateUnitsPS: 1.2e6,
			SerialFrac: 1.0, DiskBound: 0.1, MemOverhead: 1.2, FS: FSLocal,
		},
		{
			Name: EnginePostgreSQL, Centralized: true, InMemory: false,
			StartupSec: 0.2, PerTaskSec: 0, RateUnitsPS: 1.5e6,
			SerialFrac: 1.0, DiskBound: 0.6, MemOverhead: 1.0, FS: FSPostgres,
		},
		{
			Name: EngineMemSQL, Centralized: false, InMemory: true,
			StartupSec: 0.5, PerTaskSec: 0.2, RateUnitsPS: 2.0e6,
			SerialFrac: 0.10, DiskBound: 0.0, MemOverhead: 30.0, FS: FSMemSQL,
		},
		{
			Name: EngineHive, Centralized: false, InMemory: false,
			StartupSec: 20.0, PerTaskSec: 2.5, RateUnitsPS: 0.5e6,
			SerialFrac: 0.05, DiskBound: 0.7, MemOverhead: 1.0, FS: FSHDFS,
		},
		{
			Name: EnginePython, Centralized: true, InMemory: true,
			StartupSec: 0.2, PerTaskSec: 0, RateUnitsPS: 0.5e6,
			SerialFrac: 1.0, DiskBound: 0.1, MemOverhead: 1.2, FS: FSLocal,
		},
		{
			Name: EngineCilk, Centralized: true, InMemory: true,
			StartupSec: 0.3, PerTaskSec: 0, RateUnitsPS: 2.5e6,
			SerialFrac: 0.10, DiskBound: 0.1, MemOverhead: 1.0, FS: FSLocal,
		},
	}
}

// Algorithm names used across the repository (they appear in the
// Constraints.OpSpecification.Algorithm.name field of operator
// descriptions).
const (
	AlgPagerank  = "pagerank"
	AlgTFIDF     = "TF_IDF"
	AlgKMeans    = "kmeans"
	AlgWordcount = "wordcount"
	AlgLineCount = "LineCount"
	AlgSQLQ1     = "sql_q1"
	AlgSQLQ2     = "sql_q2"
	AlgSQLQ3     = "sql_q3"
	AlgHello     = "HelloWorld"
	AlgHello1    = "HelloWorld1"
	AlgHello2    = "HelloWorld2"
	AlgHello3    = "HelloWorld3"
	AlgGrep      = "grep"
	AlgSort      = "sort"
	AlgJoin      = "join"
)

// DefaultWorkloads returns the calibrated per-algorithm cost shapes.
func DefaultWorkloads() []Workload {
	return []Workload{
		{
			// One record = one graph edge; cost linear in edges per
			// iteration; ~300B of adjacency + rank state per edge.
			Algorithm: AlgPagerank, UnitsPerRecord: 1.0,
			IterParam: "iterations", DefaultIters: 10,
			MemBytesPerRecord: 300, OutputFactor: 0.1,
		},
		{
			// One record = one document; tokenization dominates. Output is
			// one tf-idf vector per document. scikit's C vectorizer is ~3x
			// its base Python rate.
			Algorithm: AlgTFIDF, UnitsPerRecord: 2000,
			MemBytesPerRecord: 5e3, OutputFactor: 1.0,
			Affinity: map[string]float64{EngineScikit: 3.0},
		},
		{
			// One record = one feature vector; cost grows with k and
			// iterations. Distance computation over dense vectors is
			// heavier per record than tokenization, which puts the k-means
			// centralized/distributed crossover below tf-idf's — the source
			// of the paper's hybrid zone in Fig 12.
			Algorithm: AlgKMeans, UnitsPerRecord: 1500,
			IterParam: "iterations", DefaultIters: 5,
			MemBytesPerRecord: 4e3, OutputFactor: 0.01, MinOutputRecords: 8,
			ScaleParams: []ParamScale{{Param: "k", Ref: 8}},
			Affinity:    map[string]float64{EngineScikit: 0.5},
		},
		{
			// One record = one document; shuffle adds the n*log(n) term.
			Algorithm: AlgWordcount, UnitsPerRecord: 150, LogN: true,
			MemBytesPerRecord: 10e3, OutputFactor: 0.2,
		},
		{
			Algorithm: AlgLineCount, UnitsPerRecord: 2,
			MemBytesPerRecord: 100, OutputFactor: 1e-6, MinOutputRecords: 1,
		},
		// The three SPJ queries of the relational workflow (Fig 10/13).
		// q1 joins the small legacy tables, q2 the medium ones, q3 the
		// large fact tables; a record is a scanned row.
		{
			Algorithm: AlgSQLQ1, UnitsPerRecord: 20, LogN: true,
			MemBytesPerRecord: 150, OutputFactor: 0.05,
		},
		{
			Algorithm: AlgSQLQ2, UnitsPerRecord: 30, LogN: true,
			MemBytesPerRecord: 150, OutputFactor: 0.05,
		},
		{
			Algorithm: AlgSQLQ3, UnitsPerRecord: 40, LogN: true,
			MemBytesPerRecord: 150, OutputFactor: 0.02,
		},
		// HelloWorld chain used by the fault-tolerance experiment
		// (Table 1, Figs 18-22).
		{Algorithm: AlgHello, UnitsPerRecord: 5e4, MemBytesPerRecord: 100, OutputFactor: 1},
		{Algorithm: AlgHello1, UnitsPerRecord: 1e5, MemBytesPerRecord: 100, OutputFactor: 1},
		{Algorithm: AlgHello2, UnitsPerRecord: 2e5, MemBytesPerRecord: 100, OutputFactor: 1},
		{Algorithm: AlgHello3, UnitsPerRecord: 1.5e5, MemBytesPerRecord: 100, OutputFactor: 1},
		// Utility operators.
		{Algorithm: AlgGrep, UnitsPerRecord: 5, MemBytesPerRecord: 100, OutputFactor: 0.1},
		{Algorithm: AlgSort, UnitsPerRecord: 3, LogN: true, MemBytesPerRecord: 200, OutputFactor: 1},
		{Algorithm: AlgJoin, UnitsPerRecord: 25, LogN: true, MemBytesPerRecord: 250, OutputFactor: 0.3},
	}
}

// NewDefaultEnvironment builds an environment with every default engine and
// workload registered on the baseline infrastructure.
func NewDefaultEnvironment(seed int64) *Environment {
	env := NewEnvironment(DefaultInfrastructure(), seed)
	for _, p := range DefaultProfiles() {
		env.Register(p)
	}
	for _, w := range DefaultWorkloads() {
		env.RegisterWorkload(w)
	}
	return env
}
