package forest

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/dist"
	"repro/internal/graph"
)

// roundCtx is a context whose Err trips on call after+1. The engine
// polls the context once per round boundary, so it aborts a run right
// after round `after`.
type roundCtx struct {
	mu           sync.Mutex
	calls, after int
}

func (c *roundCtx) Deadline() (time.Time, bool) { return time.Time{}, false }
func (c *roundCtx) Done() <-chan struct{}       { return nil }
func (c *roundCtx) Value(any) any               { return nil }
func (c *roundCtx) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.calls++
	if c.calls > c.after {
		return context.Canceled
	}
	return nil
}

// roundSink keeps a trace's round records.
type roundSink struct{ rounds []dist.RoundRecord }

func (s *roundSink) FlushRounds(recs []dist.RoundRecord) error {
	s.rounds = append(s.rounds, recs...)
	return nil
}
func (s *roundSink) FlushRuns([]dist.RunRecord) error { return nil }

// waitColorFixture is one wait-for-parents run: a forest union, its
// identifiers, and the parent-flag column of a complete acyclic
// orientation on any network over the same graph.
type waitColorFixture struct {
	g       *graph.Graph
	ids     []int
	sigma   *graph.Orientation
	palette int
}

func newWaitColorFixture(tb testing.TB, n, a int, seed int64) *waitColorFixture {
	tb.Helper()
	rng := rand.New(rand.NewSource(seed))
	g := graph.ForestUnion(n, a, rng)
	net := dist.NewNetworkPermuted(g, rng)
	or, hp, err := CompleteAcyclicOrientation(net, a, DefaultEps)
	if err != nil {
		tb.Fatal(err)
	}
	return &waitColorFixture{g: g, ids: net.IDs(), sigma: or.Sigma, palette: hp.Degree + 1}
}

// network returns a fresh network over the fixture, sharded when
// shards > 1.
func (f *waitColorFixture) network(tb testing.TB, shards int) *dist.Network {
	tb.Helper()
	net, err := dist.NewNetworkWithIDs(f.g, f.ids)
	if err != nil {
		tb.Fatal(err)
	}
	if shards > 1 {
		sh, err := graph.NewSharding(f.g.N(), shards)
		if err != nil {
			tb.Fatal(err)
		}
		if net, err = net.Sharded(sh); err != nil {
			tb.Fatal(err)
		}
	}
	return net
}

// input returns the parent-flag column WaitColorAlgo reads.
func (f *waitColorFixture) input(net *dist.Network) []int64 {
	return net.PortColumn(nil, nil, func(v int, ports []int, out []int64) {
		for p, u := range ports {
			if f.sigma.IsParent(v, u) {
				out[p] = 1
			}
		}
	})
}

// tracedRounds runs WaitColorAlgo to completion on a probed network and
// returns the result, with its outputs copied, and the round records.
func (f *waitColorFixture) tracedRounds(t *testing.T, workers int) (*dist.Result, []dist.RoundRecord) {
	t.Helper()
	sink := &roundSink{}
	p := dist.NewProbe(sink)
	net := f.network(t, 1).WithWorkers(workers).WithProbe(p)
	res, err := net.Run(newWaitColor(f.palette, RuleFirstFree), dist.RunOptions{InputWords: f.input(net)})
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if err != nil {
		t.Fatal(err)
	}
	res.OutputWords = append([]int64(nil), res.OutputWords...)
	return res, sink.rounds
}

// TestWaitColorSleepersSkipped pins the wake-on-message scheduler on
// the program it was built for: waiting nodes sleep, so fewer nodes step
// than are live, and the stepped counts are identical at every worker
// count.
func TestWaitColorSleepersSkipped(t *testing.T) {
	f := newWaitColorFixture(t, 3000, 4, 31)
	_, seq := f.tracedRounds(t, 1)
	_, par := f.tracedRounds(t, 4)
	var live, stepped int
	for i, r := range seq {
		if r.Stepped != par[i].Stepped || r.Live != par[i].Live {
			t.Fatalf("round %d: stepped/live %d/%d at 1 worker, %d/%d at 4", r.Round, r.Stepped, r.Live, par[i].Stepped, par[i].Live)
		}
		if r.Stepped > r.Live {
			t.Fatalf("round %d: %d nodes stepped of %d live", r.Round, r.Stepped, r.Live)
		}
		live += r.Live
		stepped += r.Stepped
	}
	if 2*stepped >= live {
		t.Fatalf("%d of %d live node-rounds stepped; waiting nodes are not being skipped", stepped, live)
	}
}

// TestWaitColorSnapshotResumeWhileAsleep aborts a WaitColor run with
// SnapshotOnAbort at the round boundary where the largest share of live
// nodes sleeps, and resumes it on a fresh network at 1 and 3 shards.
// Sleep state is not part of a snapshot: resumed nodes start awake, and
// the Sleep contract makes their extra steps no-ops, so the resumed run
// must equal the uninterrupted one bit for bit.
func TestWaitColorSnapshotResumeWhileAsleep(t *testing.T) {
	f := newWaitColorFixture(t, 3000, 4, 32)
	ref, rounds := f.tracedRounds(t, 0)
	// Round records start at round 1: rounds[k] is round k+1, the first
	// round after a boundary-k abort.
	k := -1
	for i, r := range rounds {
		if i > 0 && (k < 0 || r.Stepped*rounds[k].Live < rounds[k].Stepped*r.Live) {
			k = i
		}
	}
	if k < 0 || 2*rounds[k].Stepped >= rounds[k].Live {
		t.Fatalf("no round in which most live nodes sleep: %+v", rounds)
	}
	algo := newWaitColor(f.palette, RuleFirstFree)
	for _, shards := range []int{1, 3} {
		net := f.network(t, 1)
		res, err := net.Run(algo, dist.RunOptions{InputWords: f.input(net), Context: &roundCtx{after: k}, SnapshotOnAbort: true})
		if !errors.Is(err, dist.ErrCanceled) {
			t.Fatalf("abort at round %d: err=%v", k, err)
		}
		if res.Snapshot == nil || res.Snapshot.Round() != k {
			t.Fatalf("abort at round %d: snapshot %+v", k, res.Snapshot)
		}
		var blob bytes.Buffer
		if _, err := res.Snapshot.WriteTo(&blob); err != nil {
			t.Fatal(err)
		}
		sn, err := dist.ReadSnapshot(&blob)
		if err != nil {
			t.Fatal(err)
		}
		fresh := f.network(t, shards)
		got, err := fresh.Resume(algo, dist.RunOptions{InputWords: f.input(fresh)}, sn)
		if err != nil {
			t.Fatalf("shards=%d: resume: %v", shards, err)
		}
		if got.Rounds != ref.Rounds || got.Messages != ref.Messages || !reflect.DeepEqual(got.OutputWords, ref.OutputWords) {
			t.Fatalf("shards=%d: resumed run (rounds %d, messages %d) differs from the uninterrupted one (rounds %d, messages %d) or its colors do",
				shards, got.Rounds, got.Messages, ref.Rounds, ref.Messages)
		}
	}
}

// BenchmarkWaitColor measures the wait-for-parents engine alone: one
// complete acyclic orientation of ForestUnion(2·10^4, 8) is built once,
// and every iteration is one WaitColor run over it on the same network.
func BenchmarkWaitColor(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	g := graph.ForestUnion(20000, 8, rng)
	net := dist.NewNetworkPermuted(g, rng)
	or, hp, err := CompleteAcyclicOrientation(net, 8, DefaultEps)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := WaitColor(net, or.Sigma, hp.Degree+1, RuleFirstFree, nil, nil); err != nil {
			b.Fatal(err)
		}
	}
}
