package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"

	"dyngraph/internal/core"
	"dyngraph/internal/graph"
	"dyngraph/internal/promtext"
	"dyngraph/internal/service"
)

// encodeSequence returns the JSON bodies of a workload's first count
// snapshots.
func encodeSequence(t *testing.T, w *workload, seed int64, count int) [][]byte {
	t.Helper()
	seq := newSequence(w, seed)
	var out [][]byte
	for i := 0; i < count; i++ {
		b, err := json.Marshal(seq.next())
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, b)
	}
	return out
}

func TestSameSeedSameSnapshots(t *testing.T) {
	for _, w := range workloads {
		a := encodeSequence(t, w, 7, plantAt+2)
		b := encodeSequence(t, w, 7, plantAt+2)
		for i := range a {
			if string(a[i]) != string(b[i]) {
				t.Fatalf("%s: instance %d differs between two generations from seed 7", w.name, i)
			}
		}
	}
}

func TestDifferentSeedDifferentSnapshots(t *testing.T) {
	for _, w := range workloads {
		a := encodeSequence(t, w, 7, 2)
		b := encodeSequence(t, w, 8, 2)
		for i := range a {
			if string(a[i]) == string(b[i]) {
				t.Errorf("%s: instance %d is the same for seeds 7 and 8", w.name, i)
			}
		}
	}
}

// graphs builds a workload's first count instances, applying mutate to
// the snapshot of instance at (with the previous instance's edges)
// before it is built.
func graphs(t *testing.T, w *workload, count, at int, mutate func(s *service.Snapshot, prev []service.SnapshotEdge)) []*graph.Graph {
	t.Helper()
	seq := newSequence(w, 3)
	var out []*graph.Graph
	var prev []service.SnapshotEdge
	for i := 0; i < count; i++ {
		snap := seq.next()
		snap.Edges = append([]service.SnapshotEdge(nil), snap.Edges...)
		if i == at {
			mutate(&snap, prev)
		}
		prev = snap.Edges
		g, err := snap.Graph()
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, g)
	}
	return out
}

// shapeErr runs checkShape over a built sequence and returns the first
// error.
func shapeErr(w *workload, gs []*graph.Graph) error {
	var prev *graph.Graph
	for i, g := range gs {
		if err := checkShape(w, i, prev, g); err != nil {
			return err
		}
		prev = g
	}
	return nil
}

func TestWorkloadsMatchTheirDescription(t *testing.T) {
	for _, w := range workloads {
		if err := shapeErr(w, graphs(t, w, plantAt+3, -1, nil)); err != nil {
			t.Errorf("%s: %v", w.name, err)
		}
	}
}

func TestShapeAssertionsFireOnMutatedSnapshots(t *testing.T) {
	mutations := map[string]func(*service.Snapshot, []service.SnapshotEdge){
		"dropped edge": func(s *service.Snapshot, _ []service.SnapshotEdge) { s.Edges = s.Edges[:len(s.Edges)-1] },
		"extra vertex": func(s *service.Snapshot, _ []service.SnapshotEdge) { s.N++ },
		"missing edit": func(s *service.Snapshot, prev []service.SnapshotEdge) {
			for i, e := range prev {
				if s.Edges[i].W != e.W {
					s.Edges[i].W = e.W
					return
				}
			}
		},
		"extra edit": func(s *service.Snapshot, prev []service.SnapshotEdge) {
			for i, e := range prev {
				if s.Edges[i].W == e.W {
					s.Edges[i].W *= 3
					return
				}
			}
			s.Edges = append(s.Edges, service.SnapshotEdge{I: 0, J: s.N - 1, W: 1})
		},
	}
	for _, w := range workloads {
		for name, mutate := range mutations {
			for _, at := range []int{0, 2, plantAt} {
				if at == 0 && (name == "missing edit" || name == "extra edit") {
					continue // instance 0 has no previous instance to diff against
				}
				if err := shapeErr(w, graphs(t, w, plantAt+1, at, mutate)); err == nil {
					t.Errorf("%s: %s at instance %d went unnoticed", w.name, name, at)
				}
			}
		}
	}
}

func TestCheckMode(t *testing.T) {
	trickle, _ := workloadByName("trickle")
	churn, _ := workloadByName("churn")
	cases := []struct {
		w     *workload
		modes map[string]int
		warm  int
		ok    bool
	}{
		{trickle, map[string]int{"cold": 1, "incremental": 18, "warm": 2}, 20, true},
		{trickle, map[string]int{"cold": 1, "incremental": 17, "warm": 3}, 20, false},
		{churn, map[string]int{"cold": 1, "warm": 20}, 20, true},
		{churn, map[string]int{"cold": 1, "warm": 19, "incremental": 1}, 20, false},
		{churn, map[string]int{"cold": 2, "warm": 19}, 20, false},
	}
	for i, c := range cases {
		if err := checkMode(c.w, c.modes, c.warm); (err == nil) != c.ok {
			t.Errorf("case %d: checkMode = %v, want ok=%v", i, err, c.ok)
		}
	}
}

func TestPlantedFlagged(t *testing.T) {
	if err := plantedFlagged(&core.TransitionJSON{Nodes: []int{1, 2, 3, 9}}, []int{1, 3, 9}); err != nil {
		t.Error(err)
	}
	if err := plantedFlagged(&core.TransitionJSON{Nodes: []int{1, 2}}, []int{1, 3}); err == nil {
		t.Error("a missing clique vertex went unnoticed")
	}
	if err := plantedFlagged(nil, []int{1}); err == nil {
		t.Error("a missing report went unnoticed")
	}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// TestMetricNames checks every reported name and that BENCHMARK.json
// lists exactly the metrics and workloads the program reports.
func TestMetricNames(t *testing.T) {
	var names []string
	for _, m := range append(append([]metricSpec{}, endToEndMetrics...), perLayerMetrics...) {
		if !metricName.MatchString(m.name) || len(m.name) > 64 {
			t.Errorf("bad metric name %q", m.name)
		}
		names = append(names, m.name)
	}
	for _, w := range workloads {
		if !metricName.MatchString(w.name) {
			t.Errorf("bad workload name %q", w.name)
		}
		names = append(names, w.name)
	}

	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var listed []string
	for _, w := range spec.Workloads {
		listed = append(listed, w.Name)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricSpec) {
		if len(got) != len(want) {
			t.Errorf("BENCHMARK.json lists %d %s metrics, the program reports %d", len(got), kind, len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("BENCHMARK.json %s metric %d is %s (%s), the program reports %s (%s)",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEndMetrics)
	check("per_layer", spec.PerLayer, perLayerMetrics)
	var programWorkloads []string
	for _, w := range workloads {
		programWorkloads = append(programWorkloads, w.name)
	}
	sort.Strings(listed)
	sort.Strings(programWorkloads)
	if strings.Join(listed, ",") != strings.Join(programWorkloads, ",") {
		t.Errorf("BENCHMARK.json workloads %v, program workloads %v", listed, programWorkloads)
	}
}

func TestSumSeries(t *testing.T) {
	samples, err := promtext.Parse(`# TYPE cadd_push_seconds histogram
cadd_push_seconds_sum{oracle="embedding"} 1.5
cadd_oracle_builds_total{stream="s0",mode="warm"} 4 # {trace_id="x"} 1
cadd_oracle_builds_total{stream="s1",mode="warm"} 2
cadd_oracle_builds_total{stream="s10",mode="warm"} 8
cadd_resident_bytes 1024
`)
	if err != nil {
		t.Fatal(err)
	}
	if got := sumSeries(samples, "cadd_push_seconds_sum"); got != 1.5 {
		t.Errorf("push sum = %v", got)
	}
	if got := sumSeries(samples, "cadd_oracle_builds_total", "stream", "s1", "mode", "warm"); got != 2 {
		t.Errorf("s1 warm builds = %v, want 2 (s10 must not match)", got)
	}
	if got := sumSeries(samples, "cadd_oracle_builds_total", "mode", "warm"); got != 14 {
		t.Errorf("warm builds = %v", got)
	}
	if got := sumSeries(samples, "cadd_resident_bytes"); got != 1024 {
		t.Errorf("resident = %v", got)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if q := quantile(xs, 0.5); q != 3 {
		t.Errorf("median = %v", q)
	}
	if q := quantile(xs, 0.9); q != 4.6 {
		t.Errorf("p90 = %v", q)
	}
}

func TestLocalScaled(t *testing.T) {
	const n = 100
	cal := make([]float64, n)
	for i := range cal {
		cal[i] = calibRefMs
	}
	for i := n - 2*calibHalfWindow - 1; i < n; i++ {
		cal[i] = 2 * calibRefMs // the host ran at half speed late in the window
	}
	lat := make([]float64, n+2) // the last two pushes were acked after the window
	for i := range lat {
		lat[i] = 10
	}
	got := localScaled(lat, cal)
	slow := 10 / hostScale(2*calibRefMs)
	if slow >= 10 {
		t.Fatalf("a push on a half-speed host scales to %v, want less than 10", slow)
	}
	for j, want := range map[int]float64{0: 10, n / 4: 10, n - calibHalfWindow - 1: slow, n + 1: slow} {
		if math.Abs(got[j]-want) > 1e-9 {
			t.Errorf("push %d scaled to %v, want %v", j, got[j], want)
		}
	}
	if lat[0] != 10 || cal[n-1] != 2*calibRefMs {
		t.Error("localScaled changed its inputs")
	}
}
