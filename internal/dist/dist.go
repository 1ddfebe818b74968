package dist

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"repro/internal/graph"
)

// ErrMaxRounds is returned (wrapped) by Run when nodes are still running
// after RunOptions.MaxRounds rounds. Callers that probe for a property -
// e.g. the H-partition testing an arboricity guess - detect the overrun
// with errors.Is.
var ErrMaxRounds = errors.New("dist: round budget exhausted")

// ErrCanceled is returned (wrapped) by Run when the run's context is
// canceled. The engine checks the context once per round boundary, so the
// returned partial Result reports a whole number of completed rounds and
// the session stays reusable: the next Run on the same Network is
// bit-for-bit identical to one on a fresh network.
var ErrCanceled = errors.New("dist: run canceled")

// ErrDeadline is returned (wrapped) by Run when the run's context
// deadline expires or RunOptions.WallBudget is exhausted, with the same
// round-boundary and partial-Result semantics as ErrCanceled.
var ErrDeadline = errors.New("dist: run deadline exceeded")

// ErrVertexPanic is returned (wrapped) by Run when a vertex program
// panics. The panic is recovered on the worker goroutine and converted
// into the deterministic Node.Fail path: the smallest panicking vertex is
// reported (identically at every worker and shard count), the run aborts
// at that round boundary with a partial Result, and the session stays
// reusable.
var ErrVertexPanic = errors.New("dist: vertex program panicked")

// defaultMaxRounds caps runs that set no explicit budget, so a buggy
// vertex program deadlocks the simulation instead of the process. Every
// legitimate run in this repository finishes orders of magnitude earlier.
const defaultMaxRounds = 1 << 20

// Algorithm is a vertex program over fixed-width words. Every message
// is exactly MessageWords() int64 words, and every vertex reads
// InputWidth() input words and writes OutputWidth() output words (or one
// word per visible port for PerPort widths); see batch.go for the message
// transport and wordio.go for the input/output columns. The widths may
// depend on the algorithm value but must be constant across one Run.
//
// InitWords runs once per node at round 0 and sends the opening
// messages. StepWords runs once per round on every node that has not
// halted; inbox holds what each visible neighbor sent in the previous
// round (WordInbox.Has reports silence).
type Algorithm interface {
	// MessageWords returns the per-message word count W >= 1.
	MessageWords() int
	// InputWidth returns the per-vertex input word count (>= 0), or
	// PerPort. Zero means the program takes no input column.
	InputWidth() int
	// OutputWidth returns the per-vertex output word count (>= 0), or
	// PerPort. Zero means the program produces no output column.
	OutputWidth() int
	// InitWords sends with SendWord / SendWords / SendAllWord.
	InitWords(n *Node)
	// StepWords is one round of the program.
	StepWords(n *Node, inbox WordInbox)
}

// RunOptions configures a single Run.
type RunOptions struct {
	// Labels restricts communication to the label-induced subgraphs: only
	// same-label neighbors are visible (nil = one subgraph).
	Labels []int
	// Active masks the run to a vertex subset: inactive vertices do not
	// run at all, are invisible to their neighbors, and leave their
	// output words zero (nil = all active).
	Active []bool
	// MaxRounds bounds the number of StepWords rounds; exceeding it
	// aborts the run with ErrMaxRounds. Zero means the (very large)
	// engine default.
	MaxRounds int
	// InputWords is the flat input column (see wordio.go for the
	// layout); its length must match the algorithm's InputWidth. The
	// engine reads it during the Run only, but the vertex program may
	// reuse its own slots as scratch.
	InputWords []int64
	// Workers paces the run's worker pool - the per-round step fan-out
	// and the engine's setup/collection sweeps. Zero resolves to the
	// Network default (WithWorkers), else to the auto heuristic:
	// GOMAXPROCS workers whenever at least 512 participants remain, at
	// least 64 nodes per goroutine. An explicitly pinned count (here or
	// via WithWorkers) always fans out exactly that many workers, which
	// is how tests force both engine paths and how benchmarks record a
	// speedup curve. Results are bit-for-bit identical at every setting;
	// only wall time changes. Negative counts are an error.
	Workers int
	// Context, when non-nil, aborts the run when it is canceled or its
	// deadline expires. The engine checks it exactly once per round
	// boundary (never mid-round), returning a partial Result wrapped in
	// ErrCanceled or ErrDeadline; the session's pooled state is returned
	// intact. Nil resolves to the Network's context (WithContext), else
	// to "never aborts". The unprobed fast path pays one boolean check.
	Context context.Context
	// WallBudget, when positive, aborts the run with ErrDeadline once
	// the run's wall time (setup through the current round boundary)
	// exceeds it - a convenience over Context for callers that want a
	// per-run budget without managing a context. Negative is an error.
	WallBudget time.Duration
	// SnapshotOnAbort captures a Snapshot of the round-structured engine
	// state into Result.Snapshot when the run aborts via Context or
	// WallBudget (not on vertex failure, whose mid-round state is not
	// snapshot-clean). Requires a run whose state lives entirely in the
	// word columns (see Snapshot); the capture verifies this and the
	// abort error is annotated if the program does not qualify.
	SnapshotOnAbort bool
}

// Result reports a completed run.
type Result struct {
	// OutputWords is the flat output column (nil when the algorithm
	// declares no output words). It aliases an engine-owned column that
	// the next Run on the same Network reclaims and re-zeroes: decode or
	// copy it before starting another run.
	OutputWords []int64
	// Rounds is the number of StepWords rounds executed - the LOCAL
	// running time. A run in which every node halts during InitWords
	// costs 0 rounds.
	Rounds int
	// Messages is the total number of messages sent.
	Messages int64
	// Wall is the host-side wall time of the whole Run (setup through
	// result collection). Unlike everything else in a Result it is not
	// deterministic; orchestrators carry it into PhaseStat.Wall.
	Wall time.Duration
	// PeakLive is the number of live vertices the run started with (the
	// live set only shrinks).
	PeakLive int
	// Snapshot is the captured engine state of a run aborted with
	// RunOptions.SnapshotOnAbort (nil otherwise). It owns its memory -
	// nothing aliases the session's pooled columns - so it stays valid
	// across later runs and can be serialized (WriteTo) or resumed
	// (Network.Resume) at any time.
	Snapshot *Snapshot
}

// Node is the per-vertex view an Algorithm operates on. State is the
// program-visible slot; everything else is engine state.
type Node struct {
	// State holds per-node algorithm state across rounds that does not
	// fit the word columns (e.g. a per-node random source).
	State any

	id     int
	vertex int
	total  int
	round  int
	ports  []int
	// wout/wmark alias the node's slots of the current round-parity
	// message column and sent flags (batch.go).
	width int
	wout  []int64
	wmark []uint8
	// win/wob are the input and output column views (wordio.go); nil
	// when the algorithm declares no input or output words.
	win    []int64
	wob    []int64
	fail   *runFailure
	sent   int64
	halted bool
	asleep bool
}

// ID returns the node's LOCAL-model identifier in {1..n}.
func (n *Node) ID() int { return n.id }

// Round returns the current round: 0 during InitWords, then 1, 2, ... for
// successive StepWords calls.
func (n *Node) Round() int { return n.round }

// Degree returns the number of visible ports (the degree within the
// simulated subgraph).
func (n *Node) Degree() int { return len(n.ports) }

// N returns the number of vertices of the whole underlying graph, the
// globally known quantity n of the LOCAL model.
func (n *Node) N() int { return n.total }

// Halt marks the node finished: it takes no further steps and sends
// nothing after the current call. Messages sent in the same call are
// still delivered next round.
func (n *Node) Halt() { n.halted = true }

// Sleep is a scheduling hint in the style of Pregel's vote-to-halt: the
// node declares that its StepWords is a no-op until a message arrives.
// The engine may skip the node from the next round on until a visible
// neighbor sends to it; it then steps in the round that delivers the
// message. A sleeping node stays live and keeps its state. The hint
// covers one call: a woken node that is still waiting calls Sleep again.
// Halt in the same call wins. An engine may ignore the hint (the
// reference engine does), so a program that keeps the contract gets the
// same outputs, rounds and messages either way.
//
//distvet:noalloc
func (n *Node) Sleep() { n.asleep = true }

// Network binds a graph to an identifier assignment and runs vertex
// programs over it. A Network is immutable and reusable: successive Run
// calls are independent, and repeated runs reuse the session's cached
// topologies and pooled per-run state (session.go).
type Network struct {
	g   *graph.Graph
	ids []int
	// workers is the pool size RunOptions.Workers == 0 resolves to
	// (0 = the auto heuristic); see WithWorkers.
	workers int
	// sharding is the vertex partition of a Sharded view (the zero value
	// on flat networks); the engine-facing copy lives in the session.
	sharding graph.Sharding
	// sess is the persistent per-network session: cached topologies and
	// pooled per-run state. It is a pointer so WithWorkers/WithProbe/
	// WithContext views share it.
	sess *session
	// probe, when non-nil, receives round- and run-level trace records
	// from every Run on this view; see WithProbe and probe.go.
	probe *Probe
	// ctx, when non-nil, is the run context RunOptions.Context == nil
	// resolves to; see WithContext.
	ctx context.Context
	// reference, when non-nil, replaces the engine for every Run on this
	// view. Only tests set it, to run a sequential reference engine.
	reference func(*Network, Algorithm, RunOptions) (*Result, error)
}

// NewNetwork returns a network with canonical identifiers id(v) = v+1.
func NewNetwork(g *graph.Graph) *Network {
	ids := make([]int, g.N())
	for v := range ids {
		ids[v] = v + 1
	}
	return &Network{g: g, ids: ids, sess: &session{}}
}

// NewNetworkPermuted returns a network whose identifiers {1..n} are
// assigned by a random permutation drawn from rng, stressing
// identifier-dependent symmetry breaking. A fixed rng seed yields a fixed
// assignment and hence bit-for-bit reproducible runs.
func NewNetworkPermuted(g *graph.Graph, rng *rand.Rand) *Network {
	ids := make([]int, g.N())
	for v, p := range rng.Perm(g.N()) {
		ids[v] = p + 1
	}
	return &Network{g: g, ids: ids, sess: &session{}}
}

// NewNetworkWithIDs returns a network with the given identifier
// assignment (ids[v] in {1..n}, each exactly once) and a fresh session.
// Harnesses use it to re-run the exact same instance - typically ids
// captured from NewNetworkPermuted via IDs - on independent sessions,
// e.g. one cold-cache network per point of a speedup sweep, without
// replaying the rng stream that generated the graph.
func NewNetworkWithIDs(g *graph.Graph, ids []int) (*Network, error) {
	n := g.N()
	if len(ids) != n {
		return nil, fmt.Errorf("dist: %d identifiers for %d vertices", len(ids), n)
	}
	seen := make([]bool, n+1)
	for v, id := range ids {
		if id < 1 || id > n || seen[id] {
			return nil, fmt.Errorf("dist: ids is not a permutation of 1..%d (ids[%d]=%d)", n, v, id)
		}
		seen[id] = true
	}
	return &Network{g: g, ids: append([]int(nil), ids...), sess: &session{}}, nil
}

// Graph returns the underlying graph.
func (net *Network) Graph() *graph.Graph { return net.g }

// IDs returns a copy of the identifier assignment, indexed by vertex.
func (net *Network) IDs() []int { return append([]int(nil), net.ids...) }

// WithContext returns a view of the network sharing the graph,
// identifier assignment and session whose Runs resolve
// RunOptions.Context == nil to ctx. Pipelines that call Run internally
// with default options inherit the context, which is how a whole
// multi-phase algorithm (LegalColoring and friends) becomes cancelable
// without threading a context through every signature. A canceled run
// aborts at the next round boundary with a partial Result wrapped in
// ErrCanceled (or ErrDeadline); the session stays reusable.
func (net *Network) WithContext(ctx context.Context) *Network {
	c := *net
	c.ctx = ctx
	return &c
}

// autoParallelThreshold is the participant count above which the auto
// worker heuristic fans a sweep out; below it the per-round
// synchronization costs more than it saves. Explicitly pinned worker
// counts (RunOptions.Workers / WithWorkers) bypass the threshold.
const autoParallelThreshold = 512

// minChunk is the smallest per-worker slice of nodes the auto heuristic
// considers worth a goroutine.
const minChunk = 64

// Run executes the vertex program round-by-round until every active node
// has halted or the round budget trips.
func (net *Network) Run(algo Algorithm, opts RunOptions) (*Result, error) {
	if net.reference != nil {
		return net.reference(net, algo, opts)
	}
	s, err := net.prepare(algo, opts)
	if err != nil {
		return nil, err
	}
	return s.run()
}

// prepare validates a run's options, assembles the pooled simulation and
// resolves its abort sources - everything Run does before entering the
// round loop. Resume (snapshot.go) shares it.
func (net *Network) prepare(algo Algorithm, opts RunOptions) (*simulation, error) {
	if algo == nil {
		return nil, errors.New("dist: nil algorithm")
	}
	n := net.g.N()
	if opts.Labels != nil && len(opts.Labels) != n {
		return nil, fmt.Errorf("dist: %d labels for %d vertices", len(opts.Labels), n)
	}
	if opts.Active != nil && len(opts.Active) != n {
		return nil, fmt.Errorf("dist: %d active flags for %d vertices", len(opts.Active), n)
	}
	if opts.MaxRounds < 0 {
		return nil, fmt.Errorf("dist: negative round budget %d", opts.MaxRounds)
	}
	if opts.Workers < 0 {
		return nil, fmt.Errorf("dist: negative worker count %d", opts.Workers)
	}
	if opts.WallBudget < 0 {
		return nil, fmt.Errorf("dist: negative wall budget %v", opts.WallBudget)
	}
	start := time.Now() //distvet:wallclock setup-vs-compute attribution (Result.Wall, RunRecord.SetupNS); wall figures are documented non-deterministic
	s, err := newSimulation(net, algo, opts)
	if err != nil {
		return nil, err
	}
	s.start = start
	s.setupNS = time.Since(start).Nanoseconds() //distvet:wallclock same setup-vs-compute attribution
	s.initAbort()
	return s, nil
}

// simulation is the per-Run state of the engine. It is pooled inside the
// session's runScratch; newSimulation re-initializes every field.
type simulation struct {
	net  *Network
	algo Algorithm
	opts RunOptions

	// topo is the cached immutable wiring (port lists, live set, slot
	// bases, delivery table) shared with other runs; see session.go.
	topo *topology
	// rs is the borrowed per-run scratch bundle, released on completion.
	rs *runScratch

	nodes []*Node // indexed by vertex; nil for inactive vertices
	// live is the mutable live list (collectHalted prunes it);
	// liveSpare is the equal-capacity double buffer the parallel
	// compaction writes into before the two swap.
	live      []int
	liveSpare []int

	// workers/explicit are the resolved pool size and whether it was
	// pinned (see resolveWorkers); sweepWorkers applies them per sweep.
	workers  int
	explicit bool

	// start/setupNS time the run for Result.Wall and the probe's
	// setup-vs-compute split; topoCached/scratchPooled are the session
	// events the run record reports (probe.go).
	start         time.Time
	setupNS       int64
	topoCached    bool
	scratchPooled bool

	// failSlot is the per-run error slot Node.Fail records into.
	failSlot runFailure

	// Run-control state. ctx/deadline are the resolved abort sources,
	// checked once per round boundary (checkAbort); hasAbort folds both
	// into the single boolean branch the fast path pays. phase is the
	// probe phase label panic reports carry (empty unprobed). resumed is
	// set by restore (snapshot.go): the loop starts at startRound+1 and
	// Init is skipped (a snapshot captured at round 0 already holds
	// Init's sends, so startRound alone cannot distinguish the cases).
	ctx        context.Context
	deadline   time.Time
	hasAbort   bool
	phase      string
	startRound int
	resumed    bool

	// Message-transport state (see batch.go). inCols[par] is the inbox
	// descriptor of parity par's word column.
	width  int
	wwords [2][]int64
	wsent  [2][]uint8
	inCols [2]inboxCol
	clearQ []int // nodes halted last round, flags pending a clear

	// Sleep scheduling (see batch.go). sleep[v] is v's sleep state,
	// written only by v's own step; wake[v] is v's wake stamp, written
	// by its senders. wake is nil until the first round boundary after a
	// node slept, and senders stamp only while it is set.
	sleep []uint8
	wake  []atomic.Int32

	// outCol is the run's output column (wordio.go); nil when the
	// algorithm declares no output words.
	outCol []int64
}

// maxSlots bounds the columnar slot space of a run.
const maxSlots = 1 << 31

// newSimulation assembles a run: resolve the (cached) topology, validate
// the algorithm's declared shape against it, borrow the pooled per-run
// state and wire every live node in one parallel sweep.
func newSimulation(net *Network, algo Algorithm, opts RunOptions) (*simulation, error) {
	n := net.g.N()
	// The topology's delivery-slot table is int32: guard the whole-graph
	// directed edge count (which bounds every filtered run's visible port
	// count) BEFORE building anything, so an oversized graph can never
	// leave a wrapped table in the cache.
	if 2*net.g.M() >= maxSlots {
		return nil, fmt.Errorf("dist: graph has %d directed edges (max %d)", 2*net.g.M(), maxSlots-1)
	}
	workers, explicit := net.resolveWorkers(opts.Workers)
	setupW := sweepWorkersFor(n, workers, explicit)
	topo, topoHit := net.sess.topology(net.g, opts.Labels, opts.Active, setupW)

	width := algo.MessageWords()
	if width < 1 {
		return nil, fmt.Errorf("dist: algorithm declares %d message words", width)
	}
	if topo.totalPorts >= maxSlots/width {
		return nil, fmt.Errorf("dist: message columns need %d word slots (max %d)", topo.totalPorts, maxSlots/width)
	}
	iw, ow := algo.InputWidth(), algo.OutputWidth()
	if iw < PerPort || ow < PerPort {
		return nil, fmt.Errorf("dist: algorithm declares word widths (%d, %d)", iw, ow)
	}
	inCol := opts.InputWords
	if want := columnLen(iw, n, topo.totalPorts); len(inCol) != want {
		return nil, fmt.Errorf("dist: %d input words for width %d (want %d)", len(inCol), iw, want)
	}

	rs, pooled := net.sess.borrowRun()
	s := &rs.sim
	*s = simulation{
		net:           net,
		algo:          algo,
		opts:          opts,
		topo:          topo,
		rs:            rs,
		workers:       workers,
		explicit:      explicit,
		topoCached:    topoHit,
		scratchPooled: pooled,
		width:         width,
	}
	rs.nodes = grown(rs.nodes, n)
	rs.arr = grown(rs.arr, n)
	rs.sleep = grown(rs.sleep, n)
	rs.live = grown(rs.live, len(topo.live))
	rs.liveSpare = grown(rs.liveSpare, len(topo.live))
	s.nodes, s.sleep = rs.nodes, rs.sleep
	s.live, s.liveSpare = rs.live, rs.liveSpare
	copy(s.live, topo.live)
	// The pooled message columns are NOT zeroed between runs: a WordInbox
	// only reads slots whose sent flag is set, and every flag read at
	// round r belongs to a sender that stepped round r-1 (clearing its
	// flags at step start), skipped round r-1 asleep (a sleeper clears
	// its flags in its first two skipped rounds, after which both
	// parities are clean) or halted earlier and had them flushed
	// (flushHaltClears) - so stale content from a previous run, even one
	// with a different topology, is never observed.
	for i := 0; i < 2; i++ {
		rs.wwords[i] = grown(rs.wwords[i], topo.totalPorts*width)
		rs.wsent[i] = grown(rs.wsent[i], topo.totalPorts)
		s.wwords[i], s.wsent[i] = rs.wwords[i], rs.wsent[i]
		s.inCols[i] = inboxCol{width: width, words: rs.wwords[i]}
	}
	s.clearQ = rs.clearQ[:0]
	if ow != 0 {
		s.outCol = net.sess.borrowOut(columnLen(ow, n, topo.totalPorts), setupW)
	}

	// One parallel sweep wires every vertex: node reset, an awake sleep
	// state and the input/output column views.
	parfor(n, setupW, func(lo, hi int) {
		clear(s.sleep[lo:hi])
		for v := lo; v < hi; v++ {
			ports := topo.ports[v]
			if ports == nil { // inactive under the Active mask
				s.nodes[v] = nil
				continue
			}
			nd := &rs.arr[v]
			*nd = Node{id: net.ids[v], vertex: v, total: n, ports: ports, fail: &s.failSlot, width: width}
			wireWordIO(nd, s, iw, ow, inCol, v)
			s.nodes[v] = nd
		}
	})
	return s, nil
}

// close releases the pooled per-run state: the output column goes back
// to the session (the NEXT run's borrow reclaims it, which is why
// Result.OutputWords may alias it until then) and the scratch bundle
// becomes available to the next run.
func (s *simulation) close() {
	s.net.sess.publishOut(s.outCol)
	// The halt queue grew in place; hand it back so its capacity
	// survives into the next run.
	s.rs.clearQ = s.clearQ[:0]
	s.net.sess.releaseRun(s.rs)
}

// run executes the round loop: round 0 (InitWords, skipped on resumed
// runs) and then one StepWords round per iteration until every node has
// halted, stopping early at a round boundary on a vertex failure, an
// abort or an exhausted round budget. An attached probe (probe.go) is
// the loop's one per-round hook: it times the round and emits its
// record; its run record is staged before the scratch is released.
func (s *simulation) run() (res *Result, err error) {
	defer s.close()
	var tr tracer
	if p := s.net.probe; p != nil {
		tr.begin(s, p)
		defer func() { tr.endRun(s, res, err) }()
	}
	first, rounds := 0, s.startRound
	if s.resumed {
		first = rounds + 1
	}
	budget := s.opts.MaxRounds
	if budget == 0 {
		budget = defaultMaxRounds
	}
	for r := first; len(s.live) > 0; r++ {
		if r > budget {
			return nil, fmt.Errorf("dist: %d nodes still running after %d rounds: %w",
				len(s.live), budget, ErrMaxRounds)
		}
		if tr.p != nil && r > 0 {
			tr.round(s, r)
		} else {
			cuts, w := s.workerCuts(len(s.live))
			s.stepRound(r, cuts, w > 1, nil)
		}
		rounds = r
		if err := s.failSlot.take(); err != nil {
			return s.result(rounds), err
		}
		if s.hasAbort {
			if err := s.checkAbort(); err != nil {
				return s.abortResult(rounds, err)
			}
		}
	}
	return s.result(rounds), nil
}

// initAbort resolves the run's abort sources: the explicit
// RunOptions.Context, else the Network context (WithContext); the
// WallBudget deadline anchors at the run's start time. Called after
// s.start is set, on both fresh and resumed runs.
func (s *simulation) initAbort() {
	ctx := s.opts.Context
	if ctx == nil {
		ctx = s.net.ctx
	}
	s.ctx = ctx
	s.deadline = time.Time{}
	if wb := s.opts.WallBudget; wb > 0 {
		s.deadline = s.start.Add(wb)
	}
	s.hasAbort = s.ctx != nil || !s.deadline.IsZero()
}

// checkAbort reports the run's abort condition at a round boundary: a
// canceled or expired context maps to ErrCanceled/ErrDeadline, an
// exhausted WallBudget to ErrDeadline. Only called between rounds, so an
// abort never observes mid-round state.
func (s *simulation) checkAbort() error {
	if s.ctx != nil {
		if err := s.ctx.Err(); err != nil {
			if errors.Is(err, context.DeadlineExceeded) {
				return fmt.Errorf("dist: run aborted at round boundary: %v: %w", err, ErrDeadline)
			}
			return fmt.Errorf("dist: run aborted at round boundary: %v: %w", err, ErrCanceled)
		}
	}
	if !s.deadline.IsZero() && time.Now().After(s.deadline) { //distvet:wallclock WallBudget enforcement is inherently wall-clock; documented non-deterministic
		return fmt.Errorf("dist: wall budget %v exhausted: %w", s.opts.WallBudget, ErrDeadline)
	}
	return nil
}

// result assembles the Result at a round boundary: the output column
// and message total of the rounds completed so far. Completed runs and
// runs stopped early (abort or vertex failure) share it.
func (s *simulation) result(rounds int) *Result {
	return &Result{
		OutputWords: s.outCol,
		Rounds:      rounds,
		Messages:    s.messages(),
		Wall:        time.Since(s.start), //distvet:wallclock Result.Wall is host-side observability, documented non-deterministic
		PeakLive:    len(s.topo.live),
	}
}

// abortResult pairs the partial Result of a context/deadline abort with
// its error, capturing a Snapshot first when the run asked for one (the
// session's pooled columns are still bound at this point; close() runs
// after).
func (s *simulation) abortResult(rounds int, abortErr error) (*Result, error) {
	res := s.result(rounds)
	if s.opts.SnapshotOnAbort {
		snap, err := s.captureSnapshot(rounds)
		if err != nil {
			return res, fmt.Errorf("%w; snapshot not captured: %v", abortErr, err)
		}
		res.Snapshot = snap
	}
	return res, abortErr
}

// messages returns the run's message total so far: the send counters
// summed over the worker chunks of the vertex range.
func (s *simulation) messages() int64 {
	n := len(s.nodes)
	w := s.sweepWorkers(n)
	s.rs.cuts = chunkCuts(s.rs.cuts, n, w)
	s.rs.sums = grown(s.rs.sums, len(s.rs.cuts)-1)
	return s.sentSum(s.rs.cuts, s.rs.sums, w > 1)
}

// sentSum sums the per-node send counters over the vertex ranges
// [cuts[j], cuts[j+1]), storing range j's subtotal in sums[j] and
// returning the total. With fan, every range is summed on its own
// goroutine; the subtotals reduce in range order either way.
func (s *simulation) sentSum(cuts []int, sums []int64, fan bool) int64 {
	k := len(cuts) - 1
	wg := &s.rs.wg
	for j := 0; j < k; j++ {
		if !fan {
			sums[j] = s.sentIn(cuts[j], cuts[j+1])
			continue
		}
		wg.Add(1)
		go func(lo, hi int, out *int64) {
			defer wg.Done()
			*out = s.sentIn(lo, hi)
		}(cuts[j], cuts[j+1], &sums[j])
	}
	wg.Wait()
	var total int64
	for _, t := range sums[:k] {
		total += t
	}
	return total
}

// sentIn sums the send counters of the vertices [lo, hi).
func (s *simulation) sentIn(lo, hi int) int64 {
	var t int64
	for _, nd := range s.nodes[lo:hi] {
		if nd != nil {
			t += nd.sent
		}
	}
	return t
}

// workerCuts returns the worker chunks of a step sweep over m live
// nodes and the worker count w: one chunk when w is 1, else one per
// worker.
func (s *simulation) workerCuts(m int) (cuts []int, w int) {
	w = s.sweepWorkers(m)
	s.rs.cuts = chunkCuts(s.rs.cuts, m, w)
	return s.rs.cuts, w
}

// chunkCuts writes into buf the bounds of parfor's split of [0, m)
// across w workers: chunk c is [cuts[c], cuts[c+1]).
func chunkCuts(buf []int, m, w int) []int {
	buf = buf[:0]
	for lo, chunk := 0, (m+w-1)/w; lo < m; lo += chunk {
		buf = append(buf, lo)
	}
	return append(buf, m)
}

// stepRound executes round r (round 0 = InitWords): it steps the live
// list in the chunks live[cuts[c]:cuts[c+1]] - worker chunks, or shard
// segments on probed sharded runs - then drops the halt flags of senders
// whose final messages this round delivered, prunes the nodes that
// halted and, after the first round in which a node slept, turns on
// wake stamping. Nodes touch only their own state, and delivery reads
// only the previous round's buffers, so any split of the live list
// yields the same results. With fan every nonempty chunk steps on its
// own goroutine; long-tail rounds of wave-style programs leave few live
// nodes, and the auto heuristic then steps inline. ns, when non-nil,
// receives each chunk's step wall time.
func (s *simulation) stepRound(r int, cuts []int, fan bool, ns []int64) {
	chunks := len(cuts) - 1
	s.rs.chunks = grown(s.rs.chunks, chunks)
	wg := &s.rs.wg
	for c := 0; c < chunks; c++ {
		lo, hi := cuts[c], cuts[c+1]
		cs := &s.rs.chunks[c]
		*cs = chunkState{}
		if lo == hi {
			continue
		}
		var wall *int64
		if ns != nil {
			wall = &ns[c]
		}
		if !fan {
			s.stepChunk(r, lo, hi, cs, wall)
			continue
		}
		wg.Add(1)
		go func(lo, hi int, cs *chunkState, wall *int64) {
			defer wg.Done()
			s.stepChunk(r, lo, hi, cs, wall)
		}(lo, hi, cs, wall)
	}
	wg.Wait()
	s.flushHaltClears()
	s.collectHalted()
	if s.wake == nil {
		for _, cs := range s.rs.chunks[:chunks] {
			if cs.slept {
				s.startStamping()
				break
			}
		}
	}
}

// chunkState is one step chunk's bookkeeping, padded to a cache line so
// the per-vertex cursor writes of concurrent chunks do not share one.
// cur is the live-list index being stepped, which the panic guard
// (stepSliceGuarded) uses to attribute a recovered vertex-program panic
// to the exact vertex; stepped counts the chunk's InitWords/StepWords
// calls and slept records that one of them called Sleep.
type chunkState struct {
	cur     int
	stepped int
	slept   bool
	_       [64 - 24]byte
}

// stepChunk steps live[lo:hi] under the panic guard with the chunk's
// state cs, timing it into *wall for the probe when wall is non-nil.
//
//distvet:wallclock chunk timing feeds only the probe's documented non-deterministic chunk wall fields
func (s *simulation) stepChunk(r, lo, hi int, cs *chunkState, wall *int64) {
	if wall == nil {
		s.stepSliceGuarded(r, lo, hi, cs)
		return
	}
	t := time.Now()
	s.stepSliceGuarded(r, lo, hi, cs)
	*wall = time.Since(t).Nanoseconds()
}

// stepSliceGuarded runs stepSlice under the panic guard: a panic out of
// a vertex program (or an engine misuse panic raised inside one, e.g. a
// bad Send port) is recovered on this worker goroutine and converted
// into the Node.Fail path so the run degrades to a deterministic failed
// run instead of a crashed process. cs is this chunk's pooled state;
// stepSlice keeps cs.cur on the live-list index being stepped.
//
// Determinism: the live list ascends and a panic only skips the REST of
// its own chunk, so the globally smallest panicking vertex always gets
// stepped, and runFailure keeps the smallest vertex across chunks - the
// reported failure is identical at every worker and shard count. (The
// sends of vertices after a panic in one chunk are skipped, so message
// totals of panicked runs are not pinned across worker counts.)
//
//distvet:noalloc
func (s *simulation) stepSliceGuarded(r, lo, hi int, cs *chunkState) {
	cs.cur = lo
	defer s.recoverStep(r, lo, hi, cs)
	s.stepSlice(r, lo, hi, cs)
}

// recoverStep is stepSliceGuarded's deferred recovery: it attributes the
// panic to the vertex under the chunk cursor and records it into the
// run's failure slot wrapped in ErrVertexPanic.
func (s *simulation) recoverStep(r, lo, hi int, cs *chunkState) {
	rec := recover()
	if rec == nil {
		return
	}
	err := fmt.Errorf("vertex program panic at round %d phase %q: %v: %w", r, s.phase, rec, ErrVertexPanic)
	if i := cs.cur; i >= lo && i < hi && i < len(s.live) {
		if nd := s.nodes[s.live[i]]; nd != nil {
			nd.Fail(err)
			return
		}
	}
	// A panic outside any node iteration would be an engine bug; record
	// it without a vertex attribution rather than crash the process.
	s.failSlot.record(-1, -1, err)
}

// stepSlice steps the live nodes in [lo, hi): sleep check, outbox
// binding, inbox wiring, the InitWords/StepWords dispatch and, once
// stamping is on, the wake stamps of the step's sends. This is the
// per-node round loop; the only allocations on a steady-state round are
// the vertex program's own. Slot bases and the inSlots delivery table
// come from the session-cached topology (session.go); the round-parity
// columns are the pooled, intentionally non-zeroed arrays of the run
// scratch - every flag a WordInbox reads was cleared this run by its
// owner's step (clear(nd.wmark) below), its owner's first two skipped
// rounds (skipSleeper) or flushHaltClears, so stale content from earlier
// runs is never observed. A sleeping node's state byte is read before
// its *Node is loaded, so a skipped step touches neither.
//
//distvet:noalloc
func (s *simulation) stepSlice(r, lo, hi int, cs *chunkState) {
	w := s.width
	par := r % 2
	words := s.wwords[par]
	sent := s.wsent[par]
	base := s.topo.base
	sleep, wake := s.sleep, s.wake
	in := WordInbox{col: &s.inCols[1-par], sent: s.wsent[1-par]}
	stepped, slept := 0, false
	for i := lo; i < hi; i++ {
		cs.cur = i
		v := s.live[i]
		if st := sleep[v]; st != awake {
			if !s.woken(v, r) {
				if st < sleepClean {
					s.skipSleeper(v, sent)
					sleep[v] = st + 1
				}
				continue
			}
			sleep[v] = awake
		}
		nd := s.nodes[v]
		nd.round = r
		b := base[v]
		deg := len(nd.ports)
		nd.wout = words[b*w : (b+deg)*w : (b+deg)*w]
		nd.wmark = sent[b : b+deg : b+deg]
		clear(nd.wmark)
		sentBefore := nd.sent
		stepped++
		if r == 0 {
			s.algo.InitWords(nd)
		} else {
			in.slots = s.topo.slots(v)
			s.algo.StepWords(nd, in)
		}
		if wake != nil && nd.sent != sentBefore {
			stampWake(wake, nd.ports, nd.wmark, int32(r+1))
		}
		if nd.asleep {
			nd.asleep = false
			slept = true
			// A node that fell asleep before stamping began may have
			// been sent an unstamped message this round: it steps once
			// more.
			if wake != nil && !nd.halted {
				sleep[v] = asleep
			}
		}
	}
	cs.stepped, cs.slept = stepped, slept
}

// collectHalted prunes nodes that halted during the round from the live
// set, preserving order so later rounds process nodes deterministically.
// Large live sets compact in parallel: per-chunk counts, a serial prefix
// sum, then an order-preserving parallel copy into the spare buffer.
func (s *simulation) collectHalted() {
	m := len(s.live)
	w := s.sweepWorkers(m)
	if w <= 1 {
		kept := s.live[:0]
		for _, v := range s.live {
			if s.halted(v) {
				s.clearQ = append(s.clearQ, v)
			} else {
				kept = append(kept, v)
			}
		}
		s.live = kept
		return
	}
	s.rs.counts = grown(s.rs.counts, w)
	s.rs.starts = grown(s.rs.starts, w+1)
	counts, starts := s.rs.counts, s.rs.starts
	chunk := (m + w - 1) / w
	chunks := (m + chunk - 1) / chunk
	parfor(m, w, func(lo, hi int) {
		kept := 0
		for i := lo; i < hi; i++ {
			if !s.halted(s.live[i]) {
				kept++
			}
		}
		counts[lo/chunk] = kept
	})
	keptTotal := 0
	for c := 0; c < chunks; c++ {
		starts[c] = keptTotal
		keptTotal += counts[c]
	}
	starts[chunks] = keptTotal
	clearBase := len(s.clearQ)
	s.clearQ = grownKeep(s.clearQ, clearBase+(m-keptTotal))
	dst := s.liveSpare
	parfor(m, w, func(lo, hi int) {
		c := lo / chunk
		ko := starts[c]
		// The lo entries before chunk c kept starts[c] nodes, so the other
		// lo-starts[c] halted and precede this chunk's halts in clearQ.
		ho := clearBase + (lo - starts[c])
		for i := lo; i < hi; i++ {
			v := s.live[i]
			if s.halted(v) {
				s.clearQ[ho] = v
				ho++
			} else {
				dst[ko] = v
				ko++
			}
		}
	})
	// Swap the buffers: the pruned list becomes live, the old backing
	// becomes the next compaction's destination.
	s.live, s.liveSpare = dst[:keptTotal], s.live[:cap(s.live)]
}

// halted reports whether live node v halted this round. A node whose
// sleep state is set was skipped or fell asleep without halting, so its
// *Node is not loaded.
func (s *simulation) halted(v int) bool {
	return s.sleep[v] == awake && s.nodes[v].halted
}

// sweepWorkersFor is sweepWorkers for code running before the simulation
// exists (topology builds, the setup sweep).
func sweepWorkersFor(m, workers int, explicit bool) int {
	s := simulation{workers: workers, explicit: explicit}
	return s.sweepWorkers(m)
}
