package dist

import (
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/graph"
)

// wordGossip floods mixed digests, halts at staggered rounds (id mod 3)
// with a final halting send, and outputs the digest. Any engine
// divergence (delivery, silence order, halting sends, port numbering)
// changes some output, so comparing results is a sharp equivalence
// check.
type wordGossip struct{ rounds int }

func (wordGossip) MessageWords() int { return 1 }
func (wordGossip) InputWidth() int   { return 0 }
func (wordGossip) OutputWidth() int  { return 1 }

func (g wordGossip) InitWords(n *Node) {
	v := int64(n.ID())*100003 + 7
	n.State = v
	n.SendAllWord(v)
}

func (g wordGossip) StepWords(n *Node, inbox WordInbox) {
	acc := n.State.(int64)
	for p := 0; p < n.Degree(); p++ {
		if inbox.Has(p) {
			acc = acc*31 + inbox.Word(p) + int64(p)
		}
	}
	n.State = acc
	if n.Round() >= g.rounds+n.ID()%3 {
		n.SetOutputWord(acc)
		n.Halt()
	}
	out := acc % 1000003
	if out < 0 {
		out = -out
	}
	n.SendAllWord(out + 1)
}

// tripleTag exchanges 3-word messages (id, round, id^round) for a fixed
// number of rounds; the digest folds all three words with distinct
// weights, so a word ordering or width bug diverges immediately.
type tripleTag struct{ rounds int }

func (tripleTag) MessageWords() int { return 3 }
func (tripleTag) InputWidth() int   { return 0 }
func (tripleTag) OutputWidth() int  { return 1 }

func (t tripleTag) send(n *Node) {
	r := int64(n.Round())
	for p := 0; p < n.Degree(); p++ {
		w := n.SendWords(p)
		w[0], w[1], w[2] = int64(n.ID()), r, int64(n.ID())^r
	}
}

func (t tripleTag) InitWords(n *Node) {
	n.State = int64(1)
	t.send(n)
}

func (t tripleTag) StepWords(n *Node, inbox WordInbox) {
	acc := n.State.(int64)
	for p := 0; p < n.Degree(); p++ {
		if inbox.Has(p) {
			w := inbox.Words(p)
			acc = acc*1099511628211 + 3*w[0] + 5*w[1] + 7*w[2] + int64(p)
		}
	}
	n.State = acc
	if n.Round() >= t.rounds {
		n.SetOutputWord(acc)
		n.Halt()
		return
	}
	t.send(n)
}

// The TestBatchMatchesBoxed* names predate the reference engine: the
// boxed []any transport was their oracle before it was deleted.

func TestBatchMatchesBoxedOnRandomGraphs(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		rng := rand.New(rand.NewSource(500 + seed))
		g := graph.Gnp(200, 0.04, rng)
		net := NewNetworkPermuted(g, rng)
		matchReference(t, net, wordGossip{rounds: 6}, RunOptions{})
	}
}

func TestBatchMatchesBoxedUnderFilters(t *testing.T) {
	rng := rand.New(rand.NewSource(510))
	g := graph.ForestUnion(300, 4, rng)
	net := NewNetworkPermuted(g, rng)
	labels := make([]int, g.N())
	active := make([]bool, g.N())
	for v := range labels {
		labels[v] = rng.Intn(3)
		active[v] = rng.Intn(5) > 0
	}
	res := matchReference(t, net, wordGossip{rounds: 5}, RunOptions{Labels: labels, Active: active})
	for v, o := range res.OutputWords {
		if (o == 0) != !active[v] {
			t.Fatalf("vertex %d active=%v but output %v", v, active[v], o)
		}
	}
}

func TestBatchMatchesBoxedMultiWord(t *testing.T) {
	rng := rand.New(rand.NewSource(520))
	g := graph.Grid(12, 12)
	net := NewNetworkPermuted(g, rng)
	matchReference(t, net, tripleTag{rounds: 5}, RunOptions{})
}

func TestBatchParallelMatchesSequential(t *testing.T) {
	run := func(workers int) *Result {
		rng := rand.New(rand.NewSource(530))
		g := graph.ForestUnion(600, 4, rng)
		net := NewNetworkPermuted(g, rng)
		res, err := net.Run(wordGossip{rounds: 8}, RunOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		res.Wall = 0 // host wall time, not deterministic
		return res
	}
	seq := run(1) // force sequential
	par := run(4) // pin the worker pool (pinned counts always fan out)
	if !reflect.DeepEqual(seq, par) {
		t.Fatal("worker-pool execution diverged from sequential execution")
	}
}

// TestBatchHaltingSendDeliveredExactlyOnce listens through round 5: both
// round parities recur twice after the send, so a stale sent flag (the
// clear-on-halt path) would re-deliver in round 3 or 5.
func TestBatchHaltingSendDeliveredExactlyOnce(t *testing.T) {
	net := NewNetwork(graph.Path(2))
	res := matchReference(t, net, haltSender{listen: 5}, RunOptions{})
	if got := res.OutputWords[1]; got != 1<<1 {
		t.Fatalf("vertex 1 heard in rounds %b, want round 1 only", got)
	}
}

// TestDeliveryValidation pins the transport's width checks: every
// message is at least one word, and per-vertex I/O widths are either a
// word count or PerPort.
func TestDeliveryValidation(t *testing.T) {
	net := NewNetwork(graph.Path(2))
	if _, err := net.Run(zeroWidth{}, RunOptions{}); err == nil {
		t.Error("zero-word algorithm accepted")
	}
	if _, err := net.Run(badIOWidth{}, RunOptions{}); err == nil {
		t.Error("I/O width below PerPort accepted")
	}
}

// badIOWidth declares an input width that is neither a word count nor
// PerPort.
type badIOWidth struct{ idler }

func (badIOWidth) InputWidth() int { return PerPort - 1 }

// wideSender sends a one-word message although its messages are two
// words wide; the engine must reject it loudly instead of corrupting
// columns.
type wideSender struct{ idler }

func (wideSender) MessageWords() int { return 2 }
func (wideSender) InitWords(n *Node) { n.SendWord(0, 1) }

// wantContained drives a run whose vertex program misuses the engine
// (the engine panics inside the program's Init/Step). The run-control
// plane must contain that panic into the deterministic Node.Fail path:
// an error wrapping ErrVertexPanic that still quotes the engine's own
// misuse message, plus a partial Result - never a crash.
func wantContained(t *testing.T, substr string, f func() (*Result, error)) {
	t.Helper()
	res, err := f()
	if err == nil {
		t.Errorf("no error, want contained panic mentioning %q", substr)
		return
	}
	if !errors.Is(err, ErrVertexPanic) {
		t.Errorf("error %v does not wrap ErrVertexPanic", err)
	}
	if !strings.Contains(err.Error(), substr) {
		t.Errorf("error %v, want mention of %q", err, substr)
	}
	if res == nil {
		t.Errorf("contained panic for %q returned no partial result", substr)
	}
}

func TestTransportMisusePanics(t *testing.T) {
	net := NewNetwork(graph.Path(2))
	wantContained(t, "SendWord with 2-word messages", func() (*Result, error) {
		return net.Run(wideSender{}, RunOptions{})
	})
	wantContained(t, "sends on port 1 of 1", func() (*Result, error) {
		return net.Run(algoFuncs{init: func(n *Node) { n.SendWord(1, 0) }}, RunOptions{})
	})
}

func TestBatchNetworkReusableAcrossRuns(t *testing.T) {
	net := NewNetworkPermuted(graph.Grid(8, 8), rand.New(rand.NewSource(12)))
	first, err := net.Run(wordGossip{rounds: 4}, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	first.OutputWords = append([]int64(nil), first.OutputWords...) // the next run reclaims the column
	second, err := net.Run(wordGossip{rounds: 4}, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	first.Wall, second.Wall = 0, 0 // host wall time, not deterministic
	if !reflect.DeepEqual(first, second) {
		t.Fatal("re-running on the same network changed the result")
	}
}

// flood is the delivery-path benchmark program: one word per message,
// per-node state held behind a pointer so no state is boxed per round,
// leaving message delivery as the measured cost.
type flood struct{ rounds int }

func (flood) MessageWords() int { return 1 }
func (flood) InputWidth() int   { return 0 }
func (flood) OutputWidth() int  { return 0 }

func (f flood) InitWords(n *Node) {
	acc := new(int64)
	*acc = int64(n.ID())
	n.State = acc
	n.SendAllWord(int64(n.ID() + 100000))
}

func (f flood) StepWords(n *Node, inbox WordInbox) {
	acc := n.State.(*int64)
	for p := 0; p < inbox.Ports(); p++ {
		if inbox.Has(p) {
			*acc += inbox.Word(p)
		}
	}
	if n.Round() >= f.rounds {
		n.Halt()
		return
	}
	n.SendAllWord(*acc%1000003 + 100000)
}

// BenchmarkDeliveryBatch measures one Run of a 16-round one-word flood
// over the columnar message transport.
func BenchmarkDeliveryBatch(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	g := graph.ForestUnion(4096, 4, rng)
	net := NewNetworkPermuted(g, rng)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := net.Run(flood{rounds: 16}, RunOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}
