package dist

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/graph"
)

// chainColor 2-colors a path: the head (no predecessor port) outputs 0 in
// InitWords; every other node waits for its predecessor's color c and
// outputs 1-c. The input word is the port leading to the predecessor, or
// -1 for the head.
type chainColor struct{}

func (chainColor) MessageWords() int { return 1 }
func (chainColor) InputWidth() int   { return 1 }
func (chainColor) OutputWidth() int  { return 1 }

func (chainColor) InitWords(n *Node) {
	if n.InputWords()[0] < 0 {
		n.SetOutputWord(0)
		n.SendAllWord(0)
		n.Halt()
	}
}

func (chainColor) StepWords(n *Node, inbox WordInbox) {
	p := int(n.InputWords()[0])
	if !inbox.Has(p) {
		return
	}
	c := 1 - inbox.Word(p)
	n.SetOutputWord(c)
	n.SendAllWord(c)
	n.Halt()
}

func pathInputs(n int) []int64 {
	inputs := make([]int64, n)
	inputs[0] = -1 // every other predecessor v-1 is the smaller neighbor: port 0
	return inputs
}

// TestPathTwoColoringEndToEnd is the hand-checked case: it pins the
// engine and the reference engine to the same known rounds, messages
// and colors.
func TestPathTwoColoringEndToEnd(t *testing.T) {
	const n = 17
	net := NewNetwork(graph.Path(n))
	for name, view := range map[string]*Network{"engine": net, "reference": Reference(net)} {
		res, err := view.Run(chainColor{}, RunOptions{InputWords: pathInputs(n)})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for v := 0; v < n; v++ {
			if res.OutputWords[v] != int64(v%2) {
				t.Fatalf("%s: vertex %d colored %d, want %d", name, v, res.OutputWords[v], v%2)
			}
		}
		// The color wave takes one round per edge; every node sends to
		// every neighbor once, so 2m - (n-1) = n-1 messages reach
		// unhalted nodes, but all 2m sends are counted.
		if res.Rounds != n-1 {
			t.Errorf("%s: rounds = %d, want %d", name, res.Rounds, n-1)
		}
		if want := int64(2 * (n - 1)); res.Messages != want {
			t.Errorf("%s: messages = %d, want %d", name, res.Messages, want)
		}
	}
}

func TestErrMaxRoundsSurfaces(t *testing.T) {
	const n = 9
	net := NewNetwork(graph.Path(n))
	for name, view := range map[string]*Network{"engine": net, "reference": Reference(net)} {
		// Budget too small for the wave to reach the tail.
		_, err := view.Run(chainColor{}, RunOptions{InputWords: pathInputs(n), MaxRounds: n / 2})
		if !errors.Is(err, ErrMaxRounds) {
			t.Fatalf("%s: err = %v, want ErrMaxRounds", name, err)
		}
		// Exactly enough rounds: no error.
		if _, err := view.Run(chainColor{}, RunOptions{InputWords: pathInputs(n), MaxRounds: n - 1}); err != nil {
			t.Fatalf("%s: tight budget failed: %v", name, err)
		}
	}
}

// gossip floods identifiers for a fixed number of rounds and outputs a
// digest of everything heard - enough mixing that any engine divergence
// (ordering, delivery, halting) changes some output.
type gossip struct{ rounds int }

func (gossip) MessageWords() int { return 1 }
func (gossip) InputWidth() int   { return 0 }
func (gossip) OutputWidth() int  { return 1 }

func (g gossip) InitWords(n *Node) {
	n.State = int64(n.ID())
	n.SendAllWord(int64(n.ID()))
}

func (g gossip) StepWords(n *Node, inbox WordInbox) {
	acc := n.State.(int64)
	for p := 0; p < inbox.Ports(); p++ {
		if inbox.Has(p) {
			acc = acc*31 + inbox.Word(p) + int64(p)
		}
	}
	n.State = acc
	if n.Round() >= g.rounds {
		n.SetOutputWord(acc)
		n.Halt()
		return
	}
	n.SendAllWord(acc % 1000003)
}

func runGossip(t *testing.T, seed int64, workers int) *Result {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g := graph.ForestUnion(600, 4, rng)
	net := NewNetworkPermuted(g, rng)
	res, err := net.Run(gossip{rounds: 8}, RunOptions{Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	res.Wall = 0 // host wall time, not deterministic
	return res
}

func TestDeterministicForIdenticalSeeds(t *testing.T) {
	a := runGossip(t, 42, 0)
	b := runGossip(t, 42, 0)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("identical seeds produced different results")
	}
	c := runGossip(t, 43, 0)
	if reflect.DeepEqual(a.OutputWords, c.OutputWords) {
		t.Fatal("different seeds produced identical outputs (permutation ignored?)")
	}
}

func TestParallelMatchesSequential(t *testing.T) {
	seq := runGossip(t, 7, 1) // force sequential
	par := runGossip(t, 7, 4) // pin the worker pool (pinned counts always fan out)
	if !reflect.DeepEqual(seq, par) {
		t.Fatal("worker-pool execution diverged from sequential execution")
	}
}

// portEcho records which ports were audible: its two output words are
// the number of messages heard and the mask of ports heard on. Used to
// verify label/active visibility.
type portEcho struct{ rounds int }

func (portEcho) MessageWords() int { return 1 }
func (portEcho) InputWidth() int   { return 0 }
func (portEcho) OutputWidth() int  { return 2 }

func (e portEcho) InitWords(n *Node) { n.SendAllWord(int64(n.ID())) }

func (e portEcho) StepWords(n *Node, inbox WordInbox) {
	out := n.OutputWords()
	for p := 0; p < inbox.Ports(); p++ {
		if inbox.Has(p) {
			out[0]++
			out[1] |= 1 << p
		}
	}
	if n.Round() >= e.rounds {
		n.Halt()
		return
	}
	n.SendAllWord(int64(n.ID()))
}

func TestLabelAndActiveFiltering(t *testing.T) {
	// K4: every pair adjacent. Labels split {0,1} vs {2,3}; vertex 3 is
	// inactive. Then 0 and 1 hear exactly each other; 2 hears nobody.
	g := graph.Complete(4)
	labels := []int{0, 0, 1, 1}
	active := []bool{true, true, true, false}
	net := NewNetwork(g)
	res := matchReference(t, net, portEcho{rounds: 2}, RunOptions{Labels: labels, Active: active})
	words := func(v int) [2]int64 { return [2]int64{res.OutputWords[2*v], res.OutputWords[2*v+1]} }
	if got := words(3); got != [2]int64{} {
		t.Errorf("inactive vertex has output %v", got)
	}
	if got := words(0); got != [2]int64{2, 1} {
		t.Errorf("vertex 0 heard (count, port mask) %v, want [2 1]: port 0 in both rounds", got)
	}
	if got := words(2); got != [2]int64{} {
		t.Errorf("vertex 2 heard (count, port mask) %v, want none", got)
	}
	// Engine port numbering must agree with VisiblePorts.
	if ports := VisiblePorts(g, labels, active, 0); !reflect.DeepEqual(ports, []int{1}) {
		t.Errorf("VisiblePorts(0) = %v, want [1]", ports)
	}
}

// haltSender halts in InitWords after one send; its neighbor keeps
// listening and outputs the mask of rounds it heard anything in through
// round `listen`. The message must arrive exactly once - in round 1, and
// never again.
type haltSender struct{ listen int }

func (haltSender) MessageWords() int { return 1 }
func (haltSender) InputWidth() int   { return 0 }
func (haltSender) OutputWidth() int  { return 1 }

func (haltSender) InitWords(n *Node) {
	if n.ID() == 1 {
		n.SendAllWord(99)
		n.Halt()
	}
}

func (a haltSender) StepWords(n *Node, inbox WordInbox) {
	for p := 0; p < inbox.Ports(); p++ {
		if inbox.Has(p) {
			n.OutputWords()[0] |= 1 << n.Round()
		}
	}
	if n.Round() == a.listen {
		n.Halt()
	}
}

func TestHaltingSendDeliveredExactlyOnce(t *testing.T) {
	net := NewNetwork(graph.Path(2))
	res := matchReference(t, net, haltSender{listen: 3}, RunOptions{})
	if got := res.OutputWords[1]; got != 1<<1 {
		t.Fatalf("vertex 1 heard in rounds %b, want round 1 only", got)
	}
}

// idler never halts; exercises the engine's default budget error path
// cheaply via an explicit small cap.
type idler struct{}

func (idler) MessageWords() int              { return 1 }
func (idler) InputWidth() int                { return 0 }
func (idler) OutputWidth() int               { return 0 }
func (idler) InitWords(n *Node)              {}
func (idler) StepWords(n *Node, i WordInbox) {}

// zeroWidth declares messages of no words, which the engine rejects.
type zeroWidth struct{ idler }

func (zeroWidth) MessageWords() int { return 0 }

func TestRunOptionValidation(t *testing.T) {
	net := NewNetwork(graph.Path(3))
	if _, err := net.Run(nil, RunOptions{}); err == nil {
		t.Error("nil algorithm accepted")
	}
	if _, err := net.Run(idler{}, RunOptions{InputWords: make([]int64, 2)}); err == nil {
		t.Error("input words accepted by an algorithm that declares none")
	}
	if _, err := net.Run(idler{}, RunOptions{Labels: []int{0}}); err == nil {
		t.Error("short labels accepted")
	}
	if _, err := net.Run(idler{}, RunOptions{Active: []bool{true}}); err == nil {
		t.Error("short active mask accepted")
	}
	if _, err := net.Run(idler{}, RunOptions{MaxRounds: -1}); err == nil {
		t.Error("negative budget accepted")
	}
	if _, err := net.Run(idler{}, RunOptions{MaxRounds: 4}); !errors.Is(err, ErrMaxRounds) {
		t.Error("non-halting program did not trip the budget")
	}
}

func TestInitOnlyRunCostsZeroRounds(t *testing.T) {
	algo := algoFuncs{
		init: func(n *Node) { n.SetOutputWord(int64(n.ID())); n.Halt() },
	}
	net := NewNetworkPermuted(graph.Star(6), rand.New(rand.NewSource(3)))
	res := matchReference(t, net, algo, RunOptions{})
	if res.Rounds != 0 || res.Messages != 0 {
		t.Fatalf("rounds=%d messages=%d, want 0/0", res.Rounds, res.Messages)
	}
	ids := net.IDs()
	for v, o := range res.OutputWords {
		if int(o) != ids[v] {
			t.Fatalf("vertex %d output %v, want id %d", v, o, ids[v])
		}
	}
}

// algoFuncs adapts closures to a one-word-message, one-word-output
// Algorithm for small test programs.
type algoFuncs struct {
	init func(n *Node)
	step func(n *Node, inbox WordInbox)
}

func (algoFuncs) MessageWords() int { return 1 }
func (algoFuncs) InputWidth() int   { return 0 }
func (algoFuncs) OutputWidth() int  { return 1 }

func (a algoFuncs) InitWords(n *Node) {
	if a.init != nil {
		a.init(n)
	}
}

func (a algoFuncs) StepWords(n *Node, inbox WordInbox) {
	if a.step != nil {
		a.step(n, inbox)
	}
}

func TestNetworkReusableAcrossRuns(t *testing.T) {
	net := NewNetworkPermuted(graph.Grid(6, 6), rand.New(rand.NewSource(11)))
	first, err := net.Run(gossip{rounds: 4}, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	first.OutputWords = append([]int64(nil), first.OutputWords...) // the next run reclaims the column
	second, err := net.Run(gossip{rounds: 4}, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	first.Wall, second.Wall = 0, 0 // host wall time, not deterministic
	if !reflect.DeepEqual(first, second) {
		t.Fatal("re-running on the same network changed the result")
	}
}
