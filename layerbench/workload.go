package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/deltacolor"
	"repro/internal/dist"
	"repro/internal/graph"
)

// workload is one benchmark input family: a seeded generator and the
// public coloring call it is measured through.
type workload struct {
	name string
	// n is the vertex count a run uses unless -n overrides it.
	n   int
	gen func(n int, rng *rand.Rand) *graph.Graph
	// color runs the measured pipeline on a prepared network.
	color func(net *dist.Network) (*coloring, error)
	// deltaBound marks a (Delta+1)-coloring: the palette must not
	// exceed maxDegree+1.
	deltaBound bool
}

// coloring is what a pipeline call returns, reduced to the fields the
// benchmark checks and attributes.
type coloring struct {
	colors  []int
	palette int
	tally   *dist.Tally
}

func legalColoring(a, p int) func(*dist.Network) (*coloring, error) {
	return func(net *dist.Network) (*coloring, error) {
		res, err := core.LegalColoring(net, core.Config{Arboricity: a, P: p})
		if err != nil {
			return nil, err
		}
		return &coloring{colors: res.Colors, palette: res.Palette, tally: res.Tally}, nil
	}
}

func deltaPlusOne(net *dist.Network) (*coloring, error) {
	res, err := deltacolor.ColorDeltaPlusOne(net)
	if err != nil {
		return nil, err
	}
	return &coloring{colors: res.Colors, palette: res.Palette, tally: res.Tally}, nil
}

// workloads lists every workload in BENCHMARK.json order. README.md gives
// the reason for each.
var workloads = []*workload{
	{
		name:  "forest-a8",
		n:     100_000,
		gen:   func(n int, rng *rand.Rand) *graph.Graph { return graph.ForestUnion(n, 8, rng) },
		color: legalColoring(8, 4),
	},
	{
		name:  "powerlaw-a8",
		n:     100_000,
		gen:   func(n int, rng *rand.Rand) *graph.Graph { return powerLaw(n, 8, rng) },
		color: legalColoring(8, 4),
	},
	{
		name:       "regular-d16-delta1",
		n:          50_000,
		gen:        func(n int, rng *rand.Rand) *graph.Graph { return graph.RandomRegularish(n, 16, rng) },
		color:      deltaPlusOne,
		deltaBound: true,
	},
}

// powerLaw is graph.PowerLawish with each new vertex's attachment set
// visited in sorted order. graph.PowerLawish ranges over a map there, so
// the endpoint list, and with it every later draw, follows map iteration
// order: one seed gives a different graph in every process. The model
// and the rng draws are otherwise the same.
func powerLaw(n, k int, rng *rand.Rand) *graph.Graph {
	b := graph.NewBuilder(n)
	endpoints := make([]int, 0, 2*n*k)
	endpoints = append(endpoints, 0)
	chosen := make([]int, 0, k)
	for v := 1; v < n; v++ {
		chosen = chosen[:0]
		for len(chosen) < min(k, v) {
			u := endpoints[rng.Intn(len(endpoints))]
			if u != v && !slices.Contains(chosen, u) {
				chosen = append(chosen, u)
			}
		}
		slices.Sort(chosen)
		for _, u := range chosen {
			_ = b.AddEdge(v, u) // u < v, distinct: never a duplicate
			endpoints = append(endpoints, u)
		}
		endpoints = append(endpoints, v)
	}
	return b.Build()
}

func lookupWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// countingSource wraps the generator's rng source and counts the values
// drawn, so the identifier permutation that follows generation can be
// replayed from a fresh source without regenerating the graph.
type countingSource struct {
	src   rand.Source64
	draws int64
}

func (c *countingSource) Int63() int64    { c.draws++; return c.src.Int63() }
func (c *countingSource) Uint64() uint64  { c.draws++; return c.src.Uint64() }
func (c *countingSource) Seed(seed int64) { c.src.Seed(seed); c.draws = 0 }

// instance is a generated workload input, written to a DCG1 file.
type instance struct {
	w    *workload
	seed int64
	path string
	// draws is the number of rng values generation consumed.
	draws int64
	// Shape of the generated graph, for the record stamps.
	n, m, maxDegree int
}

// prepare generates the workload graph from seed and writes it to dir as
// DCG1. Generation follows experiments.ScaleRun: one rng draws the graph
// and then (in setup) the identifier permutation.
func prepare(w *workload, n int, seed int64, dir string) (*instance, error) {
	src := &countingSource{src: rand.NewSource(seed).(rand.Source64)}
	g := w.gen(n, rand.New(src))
	in := &instance{
		w: w, seed: seed, draws: src.draws,
		path: filepath.Join(dir, fmt.Sprintf("%s-n%d-s%d.dcg1", w.name, n, seed)),
		n:    g.N(), m: g.M(), maxDegree: g.MaxDegree(),
	}
	f, err := os.Create(in.path)
	if err != nil {
		return nil, err
	}
	if err := g.WriteBinary(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("write %s: %w", in.path, err)
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	// The loader must hand back exactly the generated graph.
	loaded, err := graph.OpenBinary(in.path)
	if err != nil {
		return nil, err
	}
	if err := sameGraph(g, loaded); err != nil {
		return nil, fmt.Errorf("DCG1 round trip of %s: %w", w.name, err)
	}
	return in, nil
}

func sameGraph(a, b *graph.Graph) error {
	if a.N() != b.N() || a.M() != b.M() {
		return fmt.Errorf("shape n=%d m=%d, loaded n=%d m=%d", a.N(), a.M(), b.N(), b.M())
	}
	for v := 0; v < a.N(); v++ {
		if !slices.Equal(a.Neighbors(v), b.Neighbors(v)) {
			return fmt.Errorf("adjacency of vertex %d differs", v)
		}
	}
	return nil
}

// permRNG returns an rng in the state generation left it in.
func (in *instance) permRNG() *rand.Rand {
	src := rand.NewSource(in.seed).(rand.Source64)
	for i := int64(0); i < in.draws; i++ {
		src.Uint64()
	}
	return rand.New(src)
}

// setupTimes splits one set-up into its two public calls.
type setupTimes struct {
	load, network time.Duration
}

func (s setupTimes) total() time.Duration { return s.load + s.network }

// setup loads the DCG1 file and builds the permuted network: the set-up a
// user pays before coloring. The rng replay happens before timing.
func (in *instance) setup() (*graph.Graph, *dist.Network, setupTimes, error) {
	rng := in.permRNG()
	start := time.Now()
	g, err := graph.OpenBinary(in.path)
	if err != nil {
		return nil, nil, setupTimes{}, err
	}
	loaded := time.Now()
	net := dist.NewNetworkPermuted(g, rng)
	return g, net, setupTimes{load: loaded.Sub(start), network: time.Since(loaded)}, nil
}

// counts are the paper's quality and LOCAL-cost figures of one coloring.
// They are deterministic for a given workload, n and seed.
type counts struct {
	Colors   int   `json:"colors"`
	Palette  int   `json:"palette"`
	Rounds   int   `json:"rounds"`
	Messages int64 `json:"messages"`
}

func countsOf(c *coloring) counts {
	return counts{
		Colors:   graph.NumColors(c.colors),
		Palette:  c.palette,
		Rounds:   c.tally.Rounds(),
		Messages: c.tally.Messages(),
	}
}

// check certifies one coloring of g: legal, every color inside the
// palette, and for (Delta+1)-colorings a palette of at most maxDegree+1.
func (in *instance) check(g *graph.Graph, c *coloring) error {
	if err := g.CheckLegalColoring(c.colors); err != nil {
		return err
	}
	for v, col := range c.colors {
		if col < 0 || col >= c.palette {
			return fmt.Errorf("vertex %d has color %d outside palette [0, %d)", v, col, c.palette)
		}
	}
	if in.w.deltaBound && c.palette > g.MaxDegree()+1 {
		return fmt.Errorf("palette %d exceeds Delta+1 = %d", c.palette, g.MaxDegree()+1)
	}
	return nil
}
