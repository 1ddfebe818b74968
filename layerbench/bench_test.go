package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/dist"
)

func smokeRun(t *testing.T, workload string, trace bool) *record {
	t.Helper()
	rec, err := runBench(runConfig{
		workload: workload, seed: 1, n: 3000, trace: trace, minReps: 2, dir: t.TempDir(),
	})
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	if !rec.Result.Correct || rec.Result.Failed != 0 {
		t.Fatalf("%s trace=%v: failed checks: %v", workload, trace, rec.Failures)
	}
	return rec
}

func metricNames(defs []metricDef) []string {
	var names []string
	for _, d := range defs {
		names = append(names, d.name)
	}
	sort.Strings(names)
	return names
}

func resultNames(res *result) []string {
	var names []string
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// TestSmoke runs every workload at tiny n, untraced and traced, and
// checks the reported metric sets and the result line.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			plain := smokeRun(t, w.name, false)
			if got, want := resultNames(plain.Result), metricNames(endToEnd); !slices.Equal(got, want) {
				t.Errorf("untraced metrics %v, want %v", got, want)
			}
			for _, d := range endToEnd {
				if plain.Result.Metrics[d.name].Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, want > 0", d.name, plain.Result.Metrics[d.name].Value)
				}
			}
			traced := smokeRun(t, w.name, true)
			if got, want := resultNames(traced.Result), metricNames(perLayer()); !slices.Equal(got, want) {
				t.Errorf("traced metrics %v, want %v", got, want)
			}
			var buf bytes.Buffer
			if err := writeRun(&buf, traced); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
			var res map[string]json.RawMessage
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatal(err)
			}
			keys := make([]string, 0, len(res))
			for k := range res {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			if want := []string{"attempted", "correct", "failed", "metrics"}; !slices.Equal(keys, want) {
				t.Errorf("result keys %v, want %v", keys, want)
			}
		})
	}
}

// TestTracedCountsMatchUntraced checks that tracing changes no count:
// the traced reps' phase rounds and messages sum to the untraced
// coloring's totals (every rep is also checked against the first,
// untraced, one inside the run).
func TestTracedCountsMatchUntraced(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			plain := smokeRun(t, w.name, false)
			traced := smokeRun(t, w.name, true)
			if *plain.Counts != *traced.Counts {
				t.Fatalf("traced counts %+v, untraced %+v", *traced.Counts, *plain.Counts)
			}
			var rounds, messages float64
			for _, p := range phaseNames {
				rounds += traced.Metrics["phase."+p+".rounds"]
				messages += traced.Metrics["phase."+p+".messages"]
			}
			if int(rounds) != plain.Counts.Rounds || int64(messages) != plain.Counts.Messages {
				t.Fatalf("traced phases sum to %v rounds/%v messages, untraced run has %d/%d",
					rounds, messages, plain.Counts.Rounds, plain.Counts.Messages)
			}
		})
	}
}

// TestGenerationDeterministic checks that a seed fixes the input graph:
// two generations in one process (map iteration order differs between
// them) must agree edge for edge.
func TestGenerationDeterministic(t *testing.T) {
	for _, w := range workloads {
		a := w.gen(3000, rand.New(rand.NewSource(5)))
		b := w.gen(3000, rand.New(rand.NewSource(5)))
		if err := sameGraph(a, b); err != nil {
			t.Errorf("%s: %v", w.name, err)
		}
	}
}

// TestPermutationReplay checks that set-up rebuilds exactly the network
// experiments.ScaleRun builds: one rng for generation, then the
// identifier permutation.
func TestPermutationReplay(t *testing.T) {
	for _, w := range workloads {
		rng := rand.New(rand.NewSource(7))
		g := w.gen(2000, rng)
		want := dist.NewNetworkPermuted(g, rng).IDs()
		in, err := prepare(w, 2000, 7, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		_, net, _, err := in.setup()
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(net.IDs(), want) {
			t.Errorf("%s: replayed permutation differs from the generation rng's", w.name)
		}
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestBenchmarkJSON checks BENCHMARK.json against the metric catalog and
// the name, unit and bound rules the file must follow.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(data, &top); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range top {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if want := []string{"command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"}; !slices.Equal(keys, want) {
		t.Fatalf("BENCHMARK.json keys %v, want %v", keys, want)
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name, Why string
		} `json:"workloads"`
		EndToEnd []specMetric `json:"end_to_end"`
		PerLayer []specMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(spec.Paths, []string{"layerbench"}) || spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("paths %v / run_seconds %d out of range", spec.Paths, spec.RunSeconds)
	}
	seen := map[string]bool{}
	checkName := func(name string) {
		if !nameRE.MatchString(name) || seen[name] {
			t.Errorf("invalid or repeated name %q", name)
		}
		seen[name] = true
	}
	var wl []string
	for _, w := range spec.Workloads {
		checkName(w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
		wl = append(wl, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !slices.Equal(wl, want) {
		t.Errorf("workloads %v, program has %v", wl, want)
	}
	check := func(kind string, got []specMetric, defs []metricDef, bounded bool) {
		if len(got) != len(defs) {
			t.Errorf("%s: %d metrics, program reports %d", kind, len(got), len(defs))
			return
		}
		for i, m := range got {
			checkName(m.Name)
			if m.Name != defs[i].name || m.Unit != defs[i].unit || !unitRE.MatchString(m.Unit) {
				t.Errorf("%s[%d] = %s (%s), program reports %s (%s)", kind, i, m.Name, m.Unit, defs[i].name, defs[i].unit)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s: better=%q", m.Name, m.Better)
			}
			if bounded != (m.Bound != nil) || (bounded && (*m.Bound <= 0 || *m.Bound > 0.25)) {
				t.Errorf("%s: bad bound", m.Name)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd, true)
	check("per_layer", spec.PerLayer, perLayer(), false)
}

// TestPins checks that pins.json parses and that each workload's seed-1
// pin reproduces; LAYERBENCH_LONG=1 checks every pin at default n.
func TestPins(t *testing.T) {
	pins, err := loadPins()
	if err != nil {
		t.Fatal(err)
	}
	long := os.Getenv("LAYERBENCH_LONG") == "1"
	for k, want := range pins {
		w, err := lookupWorkload(k.workload)
		if err != nil {
			t.Fatal(err)
		}
		if k.n != w.n || (!long && (k.seed != 1 || testing.Short())) {
			continue
		}
		rec, err := runBench(runConfig{workload: k.workload, seed: k.seed, n: k.n, minReps: 1, dir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		if !rec.Pinned || rec.Result.Failed != 0 || rec.Counts == nil || *rec.Counts != want {
			t.Errorf("%+v: got %+v, failures %v", k, rec.Counts, rec.Failures)
		}
	}
}

// TestMillionInvariant reproduces the ROADMAP's n=10^6 forest-union
// record: 17 colors, 67 rounds, 87,279,601 messages. It takes about a
// minute and 3 GB, so it runs only with LAYERBENCH_LONG=1.
func TestMillionInvariant(t *testing.T) {
	if os.Getenv("LAYERBENCH_LONG") != "1" {
		t.Skip("set LAYERBENCH_LONG=1 to run the n=10^6 invariant")
	}
	rec, err := runBench(runConfig{workload: "forest-a8", seed: 1, n: 1_000_000, minReps: 1, dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Pinned || rec.Counts == nil {
		t.Fatalf("unpinned or failed run: pinned=%v failures %v", rec.Pinned, rec.Failures)
	}
	want := counts{Colors: 17, Palette: rec.Counts.Palette, Rounds: 67, Messages: 87_279_601}
	if rec.Result.Failed != 0 || *rec.Counts != want {
		t.Fatalf("got %+v, want %+v; failures %v", *rec.Counts, want, rec.Failures)
	}
}

// TestQuartiles pins the quartiles to Python's statistics.quantiles.
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 5, 2, 8, 3, 9, 4, 7, 6, 10}, 2.75, 8.25},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{1, 2, 3}, 1, 3},
		{[]float64{4}, 4, 4},
	} {
		if q1, q3 := quartiles(c.xs); q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

// TestCompare checks the verdicts: a wide spread is unresolved, a clean
// shift beyond the bound is reported, and pairs are counted.
func TestCompare(t *testing.T) {
	bound := 0.1
	spec := &benchSpec{EndToEnd: []specMetric{{Name: "color_s", Unit: "s", Better: "lower", Bound: &bound}}}
	set := func(vals ...float64) []*record {
		var recs []*record
		for _, v := range vals {
			recs = append(recs, &record{Workload: "w", Metrics: map[string]float64{"color_s": v}})
		}
		return recs
	}
	var buf bytes.Buffer
	compare(&buf, spec, set(1, 1.01, 0.99, 1, 1.02), set(1.5, 1.51, 1.49, 1.5, 1.52))
	if out := buf.String(); !strings.Contains(out, "worse by more than 0.100") || !strings.Contains(out, "0/25") {
		t.Errorf("shifted set:\n%s", out)
	}
	buf.Reset()
	compare(&buf, spec, set(1, 2, 0.5, 1.5, 1), set(1, 1.1, 0.9, 1, 1))
	if out := buf.String(); !strings.Contains(out, "unresolved") {
		t.Errorf("wide set:\n%s", out)
	}
}
