package dist_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/deltacolor"
	"repro/internal/dist"
	"repro/internal/forest"
	"repro/internal/graph"
	"repro/internal/recolor"
	"repro/internal/reduce"
)

// The differential suite runs the paper's phases and the baseline
// programs on the reference engine (reference_test.go) and on the
// optimized engine - flat and 3-shard networks, each with 1 and 4
// workers - and requires identical outputs, rounds and messages. Each
// phase that takes label/active filters runs with and without them.

// engineView is one optimized-engine configuration.
type engineView struct {
	name string
	net  *dist.Network
}

func engineViews(t *testing.T, net *dist.Network) []engineView {
	t.Helper()
	sh, err := graph.NewSharding(net.Graph().N(), 3)
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := net.Sharded(sh)
	if err != nil {
		t.Fatal(err)
	}
	var views []engineView
	for _, w := range []int{1, 4} {
		views = append(views,
			engineView{fmt.Sprintf("flat/workers=%d", w), net.WithWorkers(w)},
			engineView{fmt.Sprintf("shards=3/workers=%d", w), sharded.WithWorkers(w)})
	}
	return views
}

// matchesReference runs phase on the reference engine and on every
// engine view and fails unless the summaries it returns are equal.
// Summaries hold only deterministic fields (no wall times).
func matchesReference[T any](t *testing.T, net *dist.Network, phase func(*dist.Network) (T, error)) T {
	t.Helper()
	want, err := phase(dist.Reference(net))
	if err != nil {
		t.Fatalf("reference engine: %v", err)
	}
	for _, v := range engineViews(t, net) {
		got, err := phase(v.net)
		if err != nil {
			t.Fatalf("%s: %v", v.name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s diverges from the reference engine:\nengine    %+v\nreference %+v", v.name, got, want)
		}
	}
	return want
}

// cost is the LOCAL cost of a run.
type cost struct {
	Rounds   int
	Messages int64
}

// filterCase is one label/active filter setting.
type filterCase struct {
	name   string
	labels []int
	active []bool
}

// filterCases returns the unfiltered case and a random labels+active
// case over n vertices.
func filterCases(n int, rng *rand.Rand) []filterCase {
	labels := make([]int, n)
	active := make([]bool, n)
	for v := range labels {
		labels[v] = rng.Intn(3)
		active[v] = rng.Intn(8) > 0
	}
	return []filterCase{{"unfiltered", nil, nil}, {"filtered", labels, active}}
}

func differentialNet(g *graph.Graph, seed int64) *dist.Network {
	return dist.NewNetworkPermuted(g, rand.New(rand.NewSource(seed)))
}

func TestReferenceHPartition(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	g := graph.ForestUnion(500, 3, rng)
	net := differentialNet(g, 91)
	for _, fc := range filterCases(g.N(), rng) {
		t.Run(fc.name, func(t *testing.T) {
			type summary struct {
				Level     []int
				NumLevels int
				cost
				PeakLive int
			}
			matchesReference(t, net, func(net *dist.Network) (summary, error) {
				hp, err := forest.ComputeHPartition(net, 3, forest.DefaultEps, fc.labels, fc.active)
				if err != nil {
					return summary{}, err
				}
				return summary{hp.Level, hp.NumLevels, cost{hp.Rounds, hp.Messages}, hp.PeakLive}, nil
			})
		})
	}
}

// portDirs summarizes an orientation as every vertex's port directions.
func portDirs(g *graph.Graph, sigma *graph.Orientation) [][]graph.Dir {
	out := make([][]graph.Dir, g.N())
	for v := range out {
		out[v] = append([]graph.Dir(nil), sigma.PortDirs(v)...)
	}
	return out
}

func TestReferenceOrientByLevelKey(t *testing.T) {
	rng := rand.New(rand.NewSource(93))
	g := graph.Gnp(300, 0.02, rng)
	net := differentialNet(g, 91)
	levels := make([]int, g.N())
	keys := make([]int, g.N())
	for v := range levels {
		levels[v] = rng.Intn(4)
		keys[v] = rng.Intn(50)
	}
	for _, fc := range filterCases(g.N(), rng) {
		t.Run(fc.name, func(t *testing.T) {
			type summary struct {
				Dirs [][]graph.Dir
				cost
			}
			matchesReference(t, net, func(net *dist.Network) (summary, error) {
				or, err := forest.OrientByLevelKey(net, levels, keys, fc.labels, fc.active)
				if err != nil {
					return summary{}, err
				}
				return summary{portDirs(g, or.Sigma), cost{or.Rounds, or.Messages}}, nil
			})
		})
	}
}

func TestReferenceWaitColor(t *testing.T) {
	rng := rand.New(rand.NewSource(94))
	g := graph.ForestUnion(400, 4, rng)
	net := differentialNet(g, 91)
	levels := make([]int, g.N()) // all level 0: orient by identifier
	for _, fc := range filterCases(g.N(), rng) {
		// An acyclic orientation of the edges visible under the filters.
		or, err := forest.OrientByLevelKey(net, levels, net.IDs(), fc.labels, fc.active)
		if err != nil {
			t.Fatal(err)
		}
		palette := or.Sigma.MaxOutDegree() + 1
		for _, rule := range []forest.ChoiceRule{forest.RuleFirstFree, forest.RuleLeastUsed} {
			t.Run(fmt.Sprintf("%s/rule=%d", fc.name, rule), func(t *testing.T) {
				type summary struct {
					Colors []int
					cost
				}
				matchesReference(t, net, func(net *dist.Network) (summary, error) {
					wc, err := forest.WaitColor(net, or.Sigma, palette, rule, fc.labels, fc.active)
					if err != nil {
						return summary{}, err
					}
					return summary{wc.Colors, cost{wc.Rounds, wc.Messages}}, nil
				})
			})
		}
	}
}

// TestReferenceWaitColorPaletteExhausted pins the Node.Fail path: with a
// one-color palette under RuleFirstFree, any vertex with a parent fails,
// and every engine reports the reference engine's palette-exhausted
// error.
func TestReferenceWaitColorPaletteExhausted(t *testing.T) {
	g := graph.Path(3)
	sigma := graph.NewOrientation(g)
	if err := sigma.Orient(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := sigma.Orient(1, 2); err != nil {
		t.Fatal(err)
	}
	net := differentialNet(g, 91)
	failure := func(net *dist.Network) (string, error) {
		_, err := forest.WaitColor(net, sigma, 1, forest.RuleFirstFree, nil, nil)
		if err == nil {
			return "", fmt.Errorf("palette exhaustion not reported")
		}
		return err.Error(), nil
	}
	if msg := matchesReference(t, net, failure); !strings.Contains(msg, "palette of size 1 exhausted") {
		t.Fatalf("got %q, want a palette-exhausted failure", msg)
	}
}

func TestReferenceDecomposeWithOrientation(t *testing.T) {
	rng := rand.New(rand.NewSource(95))
	g := graph.ForestUnion(300, 3, rng)
	net := differentialNet(g, 91)
	or, _, err := forest.CompleteAcyclicOrientation(net, 3, forest.DefaultEps)
	if err != nil {
		t.Fatal(err)
	}
	type summary struct {
		ForestOf   map[[2]int]int
		NumForests int
		cost
	}
	fd := matchesReference(t, net, func(net *dist.Network) (summary, error) {
		fd, err := forest.DecomposeWithOrientation(net, or.Sigma, 0, 0)
		if err != nil {
			return summary{}, err
		}
		if err := fd.Validate(); err != nil {
			return summary{}, err
		}
		return summary{fd.ForestOf, fd.NumForests, cost{fd.Rounds, fd.Messages}}, nil
	})
	if fd.NumForests == 0 {
		t.Fatal("no forests assigned")
	}
}

// visibleParentFlags aligns sigma's parent relation with every vertex's
// visible ports under the filters, the layout RunUniform expects.
func visibleParentFlags(g *graph.Graph, sigma *graph.Orientation, labels []int, active []bool) [][]bool {
	flags := make([][]bool, g.N())
	for v := range flags {
		for _, u := range dist.VisiblePorts(g, labels, active, v) {
			flags[v] = append(flags[v], sigma.IsParent(v, u))
		}
	}
	return flags
}

// TestReferenceRunUniform covers the legal (Linial) and defective
// recolorings; TestReferenceRunUniformArb covers the arbdefective one,
// which reads parent flags from an orientation.
func TestReferenceRunUniform(t *testing.T) {
	referenceRunUniform(t, false)
}

func TestReferenceRunUniformArb(t *testing.T) {
	referenceRunUniform(t, true)
}

func referenceRunUniform(t *testing.T, arb bool) {
	rng := rand.New(rand.NewSource(81))
	g := graph.RandomRegularish(300, 6, rng)
	net := differentialNet(g, 42)
	n, delta := g.N(), g.MaxDegree()
	levels := make([]int, n)
	for _, fc := range filterCases(n, rng) {
		type recolorCase struct {
			name   string
			p      recolor.Params
			parent [][]bool
		}
		var cases []recolorCase
		if arb {
			or, err := forest.OrientByLevelKey(net, levels, net.IDs(), fc.labels, fc.active)
			if err != nil {
				t.Fatal(err)
			}
			cases = []recolorCase{
				{"arbdefective", recolor.Params{Color: -1, M0: n, DegBound: or.Sigma.MaxOutDegree(), TargetDefect: 1},
					visibleParentFlags(g, or.Sigma, fc.labels, fc.active)},
			}
		} else {
			cases = []recolorCase{
				{"linial", recolor.Params{Color: -1, M0: n, DegBound: delta}, nil},
				{"defective", recolor.Params{Color: -1, M0: n, DegBound: delta, TargetDefect: delta / 2}, nil},
			}
		}
		for _, tc := range cases {
			t.Run(fc.name+"/"+tc.name, func(t *testing.T) {
				type summary struct {
					Colors []int
					cost
				}
				matchesReference(t, net, func(net *dist.Network) (summary, error) {
					colors := make([]int, n)
					st, err := recolor.RunUniform(net, tc.p, tc.parent, fc.labels, fc.active, colors)
					return summary{colors, cost{st.Rounds, st.Messages}}, err
				})
			})
		}
	}
}

func TestReferenceKW(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	g := graph.Gnp(250, 0.03, rng)
	net := differentialNet(g, 43)
	n := g.N()
	colors := make([]int, n) // the legal n-coloring by vertex index
	for v := range colors {
		colors[v] = v
	}
	for _, fc := range filterCases(n, rng) {
		t.Run(fc.name, func(t *testing.T) {
			target := 1
			for v := 0; v < n; v++ {
				if fc.active == nil || fc.active[v] {
					target = max(target, len(dist.VisiblePorts(g, fc.labels, fc.active, v))+1)
				}
			}
			type summary struct {
				Colors []int
				cost
			}
			res := matchesReference(t, net, func(net *dist.Network) (summary, error) {
				res, err := reduce.KW(net, colors, n, target, fc.labels, fc.active)
				if err != nil {
					return summary{}, err
				}
				return summary{res.Colors, cost{res.Rounds, res.Messages}}, nil
			})
			// The result is a legal target-coloring of every visible edge.
			for v := 0; v < n; v++ {
				if fc.active != nil && !fc.active[v] {
					continue
				}
				if res.Colors[v] >= target {
					t.Fatalf("vertex %d color %d >= target %d", v, res.Colors[v], target)
				}
				for _, u := range dist.VisiblePorts(g, fc.labels, fc.active, v) {
					if res.Colors[u] == res.Colors[v] {
						t.Fatalf("edge %d-%d monochromatic", v, u)
					}
				}
			}
		})
	}
}

// treeParents roots graph.RandomTree at vertex 0: every other vertex's
// parent is its one smaller neighbor.
func treeParents(g *graph.Graph) []int {
	p := make([]int, g.N())
	for v := range p {
		p[v] = -1
		for _, u := range g.Neighbors(v) {
			if u < v && (p[v] < 0 || u < p[v]) {
				p[v] = u
			}
		}
	}
	return p
}

func TestReferenceBaselinePrograms(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	g := graph.Gnp(200, 0.04, rng)
	net := differentialNet(g, 44)
	type summary struct {
		Out []int
		cost
	}
	t.Run("luby", func(t *testing.T) {
		matchesReference(t, net, func(net *dist.Network) (summary, error) {
			res, err := baseline.LubyMIS(net, 7)
			if err != nil {
				return summary{}, err
			}
			return summary{bools(res.InMIS), cost{res.Rounds, res.Messages}}, nil
		})
	})
	t.Run("randcolor", func(t *testing.T) {
		matchesReference(t, net, func(net *dist.Network) (summary, error) {
			res, err := baseline.RandomizedColoring(net, 11)
			if err != nil {
				return summary{}, err
			}
			return summary{res.Colors, cost{res.Rounds, res.Messages}}, nil
		})
	})
	t.Run("mis", func(t *testing.T) {
		order := make([]int, g.N())
		for v := range order {
			order[v] = v
		}
		colors := g.GreedyColorByOrder(order)
		matchesReference(t, net, func(net *dist.Network) (summary, error) {
			res, err := core.MISFromColoring(net, colors)
			if err != nil {
				return summary{}, err
			}
			return summary{bools(res.InMIS), cost{res.Rounds, res.Messages}}, nil
		})
	})
	t.Run("cole-vishkin", func(t *testing.T) {
		tree := graph.RandomTree(400, rng)
		parents := treeParents(tree)
		matchesReference(t, differentialNet(tree, 45), func(net *dist.Network) (summary, error) {
			res, err := baseline.ColeVishkinForest(net, parents)
			if err != nil {
				return summary{}, err
			}
			return summary{res.Colors, cost{res.Rounds, res.Messages}}, nil
		})
	})
}

func bools(bs []bool) []int {
	out := make([]int, len(bs))
	for i, b := range bs {
		if b {
			out[i] = 1
		}
	}
	return out
}

// TestReferenceLegalColoring runs the whole Legal-Coloring stack
// (H-partition, partial orientation with per-level defective
// recoloring, Simple-Arbdefective, final complete orientation and
// wait-for-parents sweep) on every engine.
func TestReferenceLegalColoring(t *testing.T) {
	for _, a := range []int{2, 8, 16} {
		t.Run(fmt.Sprintf("a=%d", a), func(t *testing.T) {
			rng := rand.New(rand.NewSource(9000 + int64(a)))
			g := graph.ForestUnion(1000, a, rng)
			net := dist.NewNetworkPermuted(g, rng)
			type summary struct {
				Colors              []int
				Palette, Iterations int
				cost
			}
			res := matchesReference(t, net, func(net *dist.Network) (summary, error) {
				res, err := core.LegalColoring(net, core.Config{Arboricity: a, P: 4})
				if err != nil {
					return summary{}, err
				}
				return summary{res.Colors, res.Palette, res.Iterations, cost{res.Tally.Rounds(), res.Tally.Messages()}}, nil
			})
			if err := g.CheckLegalColoring(res.Colors); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestReferenceColorWithin runs the (Delta+1)-coloring recursion -
// defective splits, label compaction, base reduction, bottom-up merges -
// under base labels and an active mask.
func TestReferenceColorWithin(t *testing.T) {
	rng := rand.New(rand.NewSource(420))
	g := graph.Gnp(220, 0.06, rng)
	net := differentialNet(g, 421)
	for _, fc := range filterCases(g.N(), rng) {
		t.Run(fc.name, func(t *testing.T) {
			degBound := 0
			for v := 0; v < g.N(); v++ {
				if fc.active == nil || fc.active[v] {
					degBound = max(degBound, len(dist.VisiblePorts(g, fc.labels, fc.active, v)))
				}
			}
			type summary struct {
				Colors  []int
				Palette int
				cost
			}
			matchesReference(t, net, func(net *dist.Network) (summary, error) {
				res, err := deltacolor.ColorWithin(net, fc.labels, fc.active, degBound)
				if err != nil {
					return summary{}, err
				}
				return summary{res.Colors, res.Palette, cost{res.Tally.Rounds(), res.Tally.Messages()}}, nil
			})
		})
	}
}
