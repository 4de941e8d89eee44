package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
	"time"
)

// smoke returns short run options for one workload.
func smoke(t *testing.T, name string, trace bool) runOptions {
	t.Helper()
	w, err := findWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	return runOptions{w: w, seed: 7, window: 2 * time.Second, warmup: 300 * time.Millisecond, setups: 2, trace: trace, out: t.TempDir()}
}

// contract reads the metric names BENCHMARK.json promises for each mode.
func contract(t *testing.T) (endToEnd, perLayer []string, workloadNames []string) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	for _, m := range b.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range b.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	for _, w := range b.Workloads {
		workloadNames = append(workloadNames, w.Name)
	}
	return endToEnd, perLayer, workloadNames
}

func metricNames(r *result) []string {
	var out []string
	for _, m := range r.metrics {
		out = append(out, m.name)
	}
	return out
}

func sameSet(a, b []string) bool {
	a, b = append([]string(nil), a...), append([]string(nil), b...)
	sort.Strings(a)
	sort.Strings(b)
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestSmokeEachWorkload runs every workload briefly in both modes: the
// correctness checks pass, nothing fails, and each mode reports exactly
// the metrics BENCHMARK.json names, end-to-end ones never zero.
func TestSmokeEachWorkload(t *testing.T) {
	e2e, layers, names := contract(t)
	for _, n := range names {
		if _, err := findWorkload(n); err != nil {
			t.Fatalf("BENCHMARK.json lists a workload the benchmark lacks: %v", err)
		}
	}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			res, err := run(smoke(t, w.name, trace))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !res.correct() {
				t.Errorf("%s trace=%v: checks failed: %v", w.name, trace, res.problems)
			}
			// Under -race the cluster runs too slowly for the open loop's
			// fixed rate, and admission control sheds the excess.
			if res.attempted == 0 || (res.failed != 0 && !(raceEnabled && w.closedPerSite == 0)) {
				t.Errorf("%s trace=%v: attempted %d, failed %d", w.name, trace, res.attempted, res.failed)
			}
			want := e2e
			if trace {
				want = layers
			}
			if got := metricNames(res); !sameSet(got, want) {
				t.Errorf("%s trace=%v: metrics %v, want %v", w.name, trace, got, want)
			}
			if !trace {
				for _, m := range res.metrics {
					if m.value <= 0 {
						t.Errorf("%s: %s = %v, want > 0", w.name, m.name, m.value)
					}
				}
			}
		}
	}
}

// TestCorruptedExpectationFails proves the lost-update check can fail: the
// counts a clean run passes with, off by one on a single item, are refused.
func TestCorruptedExpectationFails(t *testing.T) {
	o := smoke(t, "uniform-rw", false)
	s, err := newSession(o, clusterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	s.l.start()
	time.Sleep(500 * time.Millisecond)
	res := &result{}
	s.finish(res)
	if !res.correct() {
		t.Fatalf("clean run failed its checks: %v", res.problems)
	}
	exp := s.l.expected()
	if err := checkCounters(s.c, exp); err != nil {
		t.Fatalf("clean counts refused: %v", err)
	}
	exp[len(exp)/2]++
	if err := checkCounters(s.c, exp); err == nil {
		t.Fatal("lost-update check passed with a corrupted expected count")
	}
}

// TestQuantileIsExact pins the nearest-rank rule the latency metrics use.
func TestQuantileIsExact(t *testing.T) {
	vs := []int64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for _, c := range []struct {
		q    float64
		want int64
	}{{0.5, 5}, {0.99, 10}, {0.1, 1}, {0.11, 2}} {
		if got := quantile(vs, c.q); got != c.want {
			t.Errorf("quantile(%v) = %d, want %d", c.q, got, c.want)
		}
	}
}
