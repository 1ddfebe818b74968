package baseline

import (
	"fmt"
	"math/bits"

	"repro/internal/dist"
)

// Cole-Vishkin 3-coloring of rooted forests [8]: starting from identifier
// colors, every iteration replaces a vertex's color by (2i + b) where i is
// the lowest bit position at which its color differs from its parent's and
// b is the vertex's bit there; the color-space size K shrinks to
// 2*ceil(log2 K) per round, reaching 6 after log* n + O(1) rounds. Three
// shift-down/recolor iterations then eliminate colors 5, 4 and 3.

// cvIterations returns the number of bit-reduction rounds needed to bring
// identifier colors in [0, n] down to [0, 6), identically computable by
// every node from n.
func cvIterations(n int) int {
	k := n + 1
	if k < 7 {
		return 0
	}
	count := 0
	for k > 6 {
		k = 2 * bits.Len(uint(k-1))
		count++
		if count > 64 {
			break
		}
	}
	return count
}

type cvState struct {
	color   int
	reduceT int
	// elimination bookkeeping
	oldColor int // color sent in the current elimination's first round
	shifted  int
}

// cvAlgo is the Cole-Vishkin vertex program. The input word is the port
// leading to the vertex's parent (-1 for roots); messages and the output
// word are colors.
type cvAlgo struct{}

func (cvAlgo) MessageWords() int { return 1 }
func (cvAlgo) InputWidth() int   { return 1 }
func (cvAlgo) OutputWidth() int  { return 1 }

func (cvAlgo) InitWords(n *dist.Node) {
	if pp := n.InputWords()[0]; pp >= int64(n.Degree()) {
		n.Failf("baseline: parent port %d out of range", pp)
		return
	}
	st := &cvState{color: n.ID() - 1, reduceT: cvIterations(n.N())}
	n.State = st
	n.SendAllWord(int64(st.color))
}

// fakeParentColor gives roots an imaginary parent color differing from
// their own.
func fakeParentColor(c int) int {
	if c == 0 {
		return 1
	}
	return 0
}

func (cvAlgo) StepWords(n *dist.Node, inbox dist.WordInbox) {
	parentPort := int(n.InputWords()[0])
	st := n.State.(*cvState)

	parentColor := func() int {
		if parentPort >= 0 && inbox.Has(parentPort) {
			return int(inbox.Word(parentPort))
		}
		return fakeParentColor(st.color)
	}

	r := n.Round()
	if r <= st.reduceT {
		// Bit-reduction round.
		pc := parentColor()
		diff := st.color ^ pc
		i := bits.TrailingZeros(uint(diff))
		st.color = 2*i + (st.color>>i)&1
		n.SendAllWord(int64(st.color))
		return
	}

	// Elimination iterations for target colors 5, 4, 3: two rounds each.
	elim := r - st.reduceT - 1 // 0-based round index within eliminations
	target := 5 - elim/2
	if elim%2 == 0 {
		// Shift-down: adopt the parent's announced color; roots pick a
		// fresh color differing from their own (hence from their
		// children's new color).
		st.oldColor = st.color
		if parentPort >= 0 {
			st.shifted = parentColor()
		} else {
			// Roots pick a fresh color from {0,1,2} differing from their
			// current one, so no eliminated color is ever reintroduced.
			st.shifted = 0
			if st.color == 0 {
				st.shifted = 1
			}
		}
		st.color = st.shifted
		n.SendAllWord(int64(st.color))
		return
	}
	// Recolor round: vertices holding the target color choose from
	// {0,1,2} avoiding the parent's shifted color and the children's
	// shifted color (= own pre-shift color).
	if st.color == target {
		pc := parentColor()
		for c := 0; c < 3; c++ {
			if c != pc && c != st.oldColor {
				st.color = c
				break
			}
		}
	}
	if target == 3 {
		n.SetOutputWord(int64(st.color))
		n.Halt()
		return
	}
	n.SendAllWord(int64(st.color))
}

// CVResult reports a Cole-Vishkin run.
type CVResult struct {
	Colors   []int
	Rounds   int
	Messages int64
}

// ColeVishkinForest 3-colors a rooted forest in O(log* n) rounds.
// parentOf[v] is v's parent vertex or -1 for roots; every (v, parentOf[v])
// pair must be an edge, and the parent relation must be acyclic with
// out-degree one (a rooted forest). Non-forest edges must not exist.
func ColeVishkinForest(net *dist.Network, parentOf []int) (*CVResult, error) {
	g := net.Graph()
	if len(parentOf) != g.N() {
		return nil, fmt.Errorf("baseline: parentOf has %d entries for %d vertices", len(parentOf), g.N())
	}
	parentPorts := make([]int64, g.N())
	for v := 0; v < g.N(); v++ {
		parentPorts[v] = -1
		if p := parentOf[v]; p >= 0 {
			port := g.PortOf(v, p)
			if port < 0 {
				return nil, fmt.Errorf("baseline: parent %d of %d is not a neighbor", p, v)
			}
			parentPorts[v] = int64(port)
		}
	}
	res, err := net.Run(cvAlgo{}, dist.RunOptions{InputWords: parentPorts})
	if err != nil {
		return nil, err
	}
	colors := make([]int, g.N())
	if err := dist.IntsFromWords(res, colors); err != nil {
		return nil, err
	}
	return &CVResult{Colors: colors, Rounds: res.Rounds, Messages: res.Messages}, nil
}
