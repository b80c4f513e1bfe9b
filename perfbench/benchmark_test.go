package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json's metric lists and
// workloads in step with what the command reports.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		list string
		got  []struct{ Name, Unit, Better string }
		want []metricDef
	}{{"end_to_end", b.EndToEnd, endToEnd}, {"per_layer", b.PerLayer, perLayer}} {
		if len(tc.got) != len(tc.want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d reported", tc.list, len(tc.got), len(tc.want))
		}
		for i, m := range tc.want {
			if g := tc.got[i]; g.Name != m.name || g.Unit != m.unit || g.Better != m.better {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the command reports %+v", tc.list, i, g, m)
			}
		}
	}
	var gated []string
	for _, w := range workloads {
		if !ungated[w.name] {
			gated = append(gated, w.name)
		}
	}
	if len(b.Workloads) != len(gated) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d defined and gated", len(b.Workloads), len(gated))
	}
	for i, name := range gated {
		if b.Workloads[i].Name != name {
			t.Errorf("workload %d: BENCHMARK.json has %q, defined %q", i, b.Workloads[i].Name, name)
		}
	}
}

// ungated are workloads the command runs that BENCHMARK.json leaves out:
// update_zipf's figures spread too far between runs of the same code to
// hold a bound (perfbench/README.md has the measurements).
var ungated = map[string]bool{"update_zipf": true}
