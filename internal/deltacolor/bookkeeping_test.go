package deltacolor

import (
	"math/rand"
	"testing"

	"repro/internal/dist"
)

// BenchmarkDeltaColorBookkeeping measures the central simulation
// bookkeeping of ColorWithin at large n in isolation: the per-level
// label compaction (ComposeLabelsInto), the palette-merge arithmetic and
// the reduction-scratch layout pass - everything the orchestrator does
// between vertex-program runs, as it is actually executed (reused
// buffers, one backing allocation for the snapshots). This closes the
// ROADMAP question of whether the documented central compaction
// dominates at scale: the reported ns/op spans all NumLevels(degBound)
// levels of an n-vertex instance, so ns/op / n / levels is the per-
// vertex-level bookkeeping cost to compare against the vertex-program
// cost of the same levels.
func BenchmarkDeltaColorBookkeeping(b *testing.B) {
	const (
		n        = 1 << 20
		degBound = 64
	)
	rng := rand.New(rand.NewSource(430))
	numLevels := NumLevels(degBound)
	// Synthetic per-level split colorings with realistic class counts
	// (a defective split produces O(1) classes per parent class).
	splits := make([][]int, numLevels)
	for i := range splits {
		splits[i] = make([]int, n)
		for v := range splits[i] {
			splits[i][v] = rng.Intn(9)
		}
	}
	colors := make([]int, n)
	for v := range colors {
		colors[v] = rng.Intn(degBound + 1)
	}

	labels := make([]int, n)
	merged := make([]int, n)
	composeIDs := make(map[[2]int]int, n)
	backing := make([]int, 2*numLevels*n)

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clear(labels)
		spare := backing
		palette := degBound + 1
		// Top-down: snapshot labels, compose with the split coloring.
		for _, classColor := range splits {
			snap := spare[:n:n]
			spare = spare[n:]
			copy(snap, labels)
			dist.ComposeLabelsInto(labels, labels, classColor, composeIDs)
		}
		// Bottom-up: the palette-merge arithmetic before each reduction.
		for lv := numLevels - 1; lv >= 0; lv-- {
			classColor := splits[lv]
			for v := 0; v < n; v++ {
				merged[v] = classColor[v]*palette + colors[v]
			}
			palette += 2
		}
	}
}
