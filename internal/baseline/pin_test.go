package baseline

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/graph"
)

// pin is an output hash (FNV-1a over the little-endian int64 outputs)
// with the run's rounds and messages.
type pin struct {
	hash     uint64
	rounds   int
	messages int64
}

// programPins were captured from the earlier []any-message versions of
// these programs, before they moved to fixed-width words. The word
// versions must reproduce them bit for bit: same per-node seeds, same
// draw order, same sends.
var programPins = []struct {
	seed                     int64
	luby, randColor, mis, cv pin
}{
	{seed: 1, luby: pin{0xa3b996400bd949e5, 7, 2776}, randColor: pin{0xe423bd6f1dad0e84, 5, 3760}, mis: pin{0xb5c206fbffda72c4, 6, 388}, cv: pin{0xef2e952ec3e62f05, 9, 2682}},
	{seed: 2, luby: pin{0x581ade2c92602f65, 6, 3065}, randColor: pin{0x4927a66847290107, 5, 3803}, mis: pin{0x7e0488e332826005, 5, 490}, cv: pin{0xd7044db7d1d95586, 10, 5980}},
	{seed: 3, luby: pin{0x8dd5ffb2bd86efa4, 6, 2416}, randColor: pin{0x6cfd20dfa9467b51, 5, 3660}, mis: pin{0xe00c9bf1e73cb65, 5, 395}, cv: pin{0x29f3e783628dfb67, 10, 8980}},
	{seed: 4, luby: pin{0x65230b70cd856a05, 5, 2679}, randColor: pin{0xf70e5077a4cab60e, 5, 3948}, mis: pin{0x783725120891dc65, 5, 487}, cv: pin{0x93f255f23a576246, 10, 11980}},
	{seed: 5, luby: pin{0x715f13d219c3ede5, 6, 2529}, randColor: pin{0x1444afe46c8fcd5b, 3, 3448}, mis: pin{0x720a20191f696d24, 6, 376}, cv: pin{0xd4d41fb76ed8f266, 10, 14980}},
	{seed: 6, luby: pin{0x748496103ddca705, 7, 2716}, randColor: pin{0xe7e849483bd75874, 5, 3819}, mis: pin{0xaa741e0c1c0b1a85, 5, 491}, cv: pin{0x624c1bca996d9fe4, 10, 17980}},
}

func hashInts(xs []int) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(b[:], uint64(int64(x)))
		h.Write(b[:])
	}
	return h.Sum64()
}

func boolsToInts(bs []bool) []int {
	out := make([]int, len(bs))
	for i, b := range bs {
		if b {
			out[i] = 1
		}
	}
	return out
}

// pinGraph alternates a random forest union and a sparse G(n, p).
func pinGraph(seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	if seed%2 == 0 {
		return graph.ForestUnion(300, 3, rng)
	}
	return graph.Gnp(200, 0.04, rng)
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

// TestWordProgramsMatchPinnedSweep runs Luby's MIS, the randomized
// coloring, Cole-Vishkin and the coloring-to-MIS sweep over a seed
// sweep and requires the pinned outputs, rounds and messages.
func TestWordProgramsMatchPinnedSweep(t *testing.T) {
	check := func(seed int64, name string, got, want pin) {
		t.Helper()
		if got != want {
			t.Errorf("seed %d %s: got hash %#x rounds %d messages %d, want %#x/%d/%d",
				seed, name, got.hash, got.rounds, got.messages, want.hash, want.rounds, want.messages)
		}
	}
	for _, tc := range programPins {
		s := tc.seed
		g := pinGraph(s)
		net := dist.NewNetworkPermuted(g, rand.New(rand.NewSource(s+100)))
		l, err := LubyMIS(net, s*7)
		if err != nil {
			t.Fatal(err)
		}
		check(s, "luby", pin{hashInts(boolsToInts(l.InMIS)), l.Rounds, l.Messages}, tc.luby)
		r, err := RandomizedColoring(net, s*11)
		if err != nil {
			t.Fatal(err)
		}
		check(s, "randcolor", pin{hashInts(r.Colors), r.Rounds, r.Messages}, tc.randColor)
		order := make([]int, g.N())
		for v := range order {
			order[v] = v
		}
		m, err := core.MISFromColoring(net, g.GreedyColorByOrder(order))
		if err != nil {
			t.Fatal(err)
		}
		check(s, "mis", pin{hashInts(boolsToInts(m.InMIS)), m.Rounds, m.Messages}, tc.mis)
		tg := graph.RandomTree(150*int(s), rand.New(rand.NewSource(s+200)))
		tnet := dist.NewNetworkPermuted(tg, rand.New(rand.NewSource(s+300)))
		cv, err := ColeVishkinForest(tnet, treeParents(tg))
		if err != nil {
			t.Fatal(err)
		}
		check(s, "cole-vishkin", pin{hashInts(cv.Colors), cv.Rounds, cv.Messages}, tc.cv)
	}
}
