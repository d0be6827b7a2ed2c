package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

// benchmarkSpec is the part of BENCHMARK.json the smoke tests check the
// output against.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// tinyConfig is the smallest run that still yields every percentile: one
// cycle, one set-up, a 20-program corpus and a 500-request serve round
// (400 hits, 100 misses, so p90 keeps 10 samples beyond it).
func tinyConfig(clients int) config {
	return config{
		clients:     clients,
		window:      time.Millisecond,
		setups:      1,
		corpusFiles: 20,
		poolSize:    8,
		roundReqs:   500,
		refSample:   4,
		minCycles:   1,
	}
}

// checkEmitted makes one tiny run of each workload and checks that it is
// correct, failed nothing, and emitted exactly the wanted metrics with
// their units.
func checkEmitted(t *testing.T, traced bool, want map[string]string) {
	for _, w := range loadSpec(t).Workloads {
		t.Run(w.Name, func(t *testing.T) {
			clients, err := workloadClients(w.Name)
			if err != nil {
				t.Fatal(err)
			}
			checkRun(t, clients, traced, want)
		})
	}
}

func checkRun(t *testing.T, clients int, traced bool, want map[string]string) {
	res, err := run(tinyConfig(clients), 2, t.TempDir(), traced)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	for name, unit := range want {
		got, ok := res.Metrics[name]
		if !ok {
			t.Errorf("metric %s not emitted", name)
		} else if got.Unit != unit {
			t.Errorf("metric %s unit %q, BENCHMARK.json says %q", name, got.Unit, unit)
		}
	}
	for name := range res.Metrics {
		if _, ok := want[name]; !ok {
			t.Errorf("metric %s emitted but not in BENCHMARK.json", name)
		}
	}
}

func TestSmokeEndToEnd(t *testing.T) {
	want := map[string]string{}
	for _, m := range loadSpec(t).EndToEnd {
		want[m.Name] = m.Unit
	}
	checkEmitted(t, false, want)
}

func TestSmokeTraced(t *testing.T) {
	want := map[string]string{}
	for _, m := range loadSpec(t).PerLayer {
		want[m.Name] = m.Unit
	}
	checkEmitted(t, true, want)
}

func TestWorkloadsMatchSpec(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if _, err := workloadClients(w.Name); err != nil {
			t.Error(err)
		}
	}
	if _, err := workloadClients("nope"); err == nil {
		t.Error("unknown workload accepted")
	}
}
