package dist

import (
	"fmt"
	"reflect"
	"sort"
	"testing"
)

// This file is the reference engine: a sequential implementation of
// Run's semantics written to be obviously correct rather than fast. It is
// the oracle the optimized engine is tested against. Every round builds a
// fresh inbox map from the previous round's sends; there is no pooling,
// no parity column, no worker pool and no sharding. It ignores Workers,
// Context, WallBudget and SnapshotOnAbort, and it does not contain
// panics - the differential tests use none of them. It also ignores the
// Node.Sleep hint and steps every live node every round, so a
// differential test shows that each sleeper kept the Sleep contract.

// refPort addresses one inbox slot: port p of vertex v.
type refPort struct{ v, p int }

// referenceRun is Network.Run on the reference engine.
func referenceRun(net *Network, algo Algorithm, opts RunOptions) (*Result, error) {
	g := net.g
	n := g.N()
	w := algo.MessageWords()
	iw, ow := algo.InputWidth(), algo.OutputWidth()
	if w < 1 {
		return nil, fmt.Errorf("dist: algorithm declares %d message words", w)
	}

	// Visible ports of the active vertices, and each vertex's offset in
	// the PerPort column layout (ascending vertex, then port, order).
	ports := make([][]int, n)
	offset := make([]int, n)
	totalPorts := 0
	var live []int
	for v := 0; v < n; v++ {
		if opts.Active != nil && !opts.Active[v] {
			continue
		}
		ports[v] = VisiblePorts(g, opts.Labels, opts.Active, v)
		offset[v] = totalPorts
		totalPorts += len(ports[v])
		live = append(live, v)
	}
	peakLive := len(live)
	colLen := func(width int) int {
		if width == PerPort {
			return totalPorts
		}
		return n * width
	}
	view := func(col []int64, width, v int) []int64 {
		switch width {
		case 0:
			return nil
		case PerPort:
			return col[offset[v] : offset[v]+len(ports[v]) : offset[v]+len(ports[v])]
		default:
			return col[v*width : (v+1)*width : (v+1)*width]
		}
	}
	in := opts.InputWords
	if len(in) != colLen(iw) {
		return nil, fmt.Errorf("dist: %d input words for width %d (want %d)", len(in), iw, colLen(iw))
	}
	if in == nil {
		in = []int64{}
	}
	var out []int64
	if ow != 0 {
		out = make([]int64, colLen(ow))
	}

	var fail runFailure
	nodes := make([]*Node, n)
	for _, v := range live {
		nodes[v] = &Node{
			id: net.ids[v], vertex: v, total: n, ports: ports[v], width: w,
			fail: &fail, win: view(in, iw, v), wob: view(out, ow, v),
		}
	}
	result := func(rounds int) *Result {
		var msgs int64
		for _, nd := range nodes {
			if nd != nil {
				msgs += nd.sent
			}
		}
		return &Result{OutputWords: out, Rounds: rounds, Messages: msgs, PeakLive: peakLive}
	}

	budget := opts.MaxRounds
	if budget == 0 {
		budget = defaultMaxRounds
	}
	var inbox map[refPort][]int64
	rounds := 0
	for r := 0; len(live) > 0; r++ {
		if r > budget {
			return nil, fmt.Errorf("dist: %d nodes still running after %d rounds: %w", len(live), budget, ErrMaxRounds)
		}
		sent := make(map[refPort][]int64)
		for _, v := range live {
			nd := nodes[v]
			nd.round = r
			nd.wout = make([]int64, len(nd.ports)*w)
			nd.wmark = make([]uint8, len(nd.ports))
			if r == 0 {
				algo.InitWords(nd)
			} else {
				algo.StepWords(nd, refInbox(inbox, v, len(nd.ports), w))
			}
			for p, u := range nd.ports {
				if nd.wmark[p] != 0 {
					back := sort.SearchInts(ports[u], v)
					sent[refPort{u, back}] = nd.wout[p*w : (p+1)*w]
				}
			}
		}
		inbox = sent
		rounds = r
		var running []int
		for _, v := range live {
			if !nodes[v].halted {
				running = append(running, v)
			}
		}
		live = running
		if err := fail.take(); err != nil {
			return result(rounds), err
		}
	}
	return result(rounds), nil
}

// refInbox lays out the messages addressed to v's ports as a WordInbox
// over private columns, one slot per port.
func refInbox(inbox map[refPort][]int64, v, deg, w int) WordInbox {
	words := make([]int64, deg*w)
	sent := make([]uint8, deg)
	slots := make([]int32, deg)
	for p := 0; p < deg; p++ {
		slots[p] = int32(p)
		if m, ok := inbox[refPort{v, p}]; ok {
			sent[p] = 1
			copy(words[p*w:], m)
		}
	}
	return WordInbox{col: &inboxCol{width: w, words: words}, sent: sent, slots: slots}
}

// Reference returns a view of net whose runs execute on the reference
// engine. Pipelines that take a *Network run every phase on it.
func Reference(net *Network) *Network {
	c := *net
	c.reference = referenceRun
	return &c
}

// matchReference runs algo on net and on the reference engine and fails
// unless outputs, rounds and messages agree. It returns the engine's
// result with the output column copied out of the session.
func matchReference(t *testing.T, net *Network, algo Algorithm, opts RunOptions) *Result {
	t.Helper()
	in := append([]int64(nil), opts.InputWords...) // programs may scribble on their input slots
	got, err := net.Run(algo, opts)
	if err != nil {
		t.Fatalf("engine run: %v", err)
	}
	got.OutputWords = append([]int64(nil), got.OutputWords...)
	opts.InputWords = in
	want, err := Reference(net).Run(algo, opts)
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	if got.Rounds != want.Rounds || got.Messages != want.Messages || got.PeakLive != want.PeakLive {
		t.Fatalf("engine diverged from reference: rounds %d/%d messages %d/%d peak live %d/%d",
			got.Rounds, want.Rounds, got.Messages, want.Messages, got.PeakLive, want.PeakLive)
	}
	if len(got.OutputWords) != 0 || len(want.OutputWords) != 0 {
		if !reflect.DeepEqual(got.OutputWords, want.OutputWords) {
			t.Fatalf("engine diverged from reference on outputs:\nengine    %v\nreference %v", got.OutputWords, want.OutputWords)
		}
	}
	return got
}
