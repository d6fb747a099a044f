package metrics

import (
	"testing"
)

func sampleRun() *Run {
	return &Run{
		Operator:  "tfidf_spark",
		Algorithm: "TF_IDF",
		Engine:    "Spark",
		Params: map[string]float64{
			"records": 1000, "bytes": 5e6, "nodes": 16, "cores": 2, "memoryMB": 3456,
		},
		ExecTimeSec:   12.5,
		CostUnits:     800,
		InputBytes:    5_000_000,
		OutputBytes:   2_500_000,
		InputRecords:  1000,
		OutputRecords: 1000,
	}
}

func TestFeatureLookup(t *testing.T) {
	r := sampleRun()
	cases := map[string]float64{
		"records":       1000,
		"nodes":         16,
		"execTime":      12.5,
		"cost":          800,
		"inputBytes":    5e6,
		"outputBytes":   2.5e6,
		"inputRecords":  1000,
		"outputRecords": 1000,
	}
	for name, want := range cases {
		got, ok := r.Feature(name)
		if !ok || got != want {
			t.Errorf("Feature(%s) = %v, %v; want %v", name, got, ok, want)
		}
	}
	if _, ok := r.Feature("nonexistent"); ok {
		t.Error("unknown feature reported present")
	}
}

func TestParamNamesSorted(t *testing.T) {
	names := sampleRun().ParamNames()
	if len(names) != 5 {
		t.Fatalf("ParamNames = %v", names)
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("not sorted: %v", names)
		}
	}
}
