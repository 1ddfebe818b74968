package dist

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// This file implements the engine's observability hook: an optional Probe
// a Network view carries into its Runs. When attached, the run loop emits
// one fixed-width RoundRecord per communication round and one RunRecord
// per Run, buffered in a preallocated ring and flushed to a ProbeSink off
// the round loop. The probe is the run loop's one per-round hook
// (tracer below); with no probe attached its only cost is a nil check
// per round - a benchmark pins the disabled-path overhead at ~0.
//
// Determinism. Everything in a record except the wall-clock and fan-out
// fields (WallNS, MaxChunkNS, MeanChunkNS, SetupNS, ComputeNS, Workers)
// is derived from the simulation state and is therefore bit-for-bit
// identical across worker counts and repeated runs; a test pins that.

// RoundRecord is the fixed-width per-round trace record. One record is
// emitted per StepWords round r = 1..Result.Rounds; the messages
// InitWords sends (round 0) are folded into the first record, so the
// Messages fields of a run's records sum exactly to Result.Messages. A
// run whose every node halts during InitWords (Result.Rounds == 0) emits
// no round records; its InitWords messages appear only in the RunRecord.
type RoundRecord struct {
	// Run is the probe-scoped sequence number tying the record to its
	// RunRecord.
	Run int64 `json:"run"`
	// Round is the StepWords round index, starting at 1.
	Round int `json:"round"`
	// Live is the number of live (not yet halted) nodes this round.
	Live int `json:"live"`
	// Stepped is the number of nodes whose StepWords ran this round: the
	// live nodes minus the sleepers the engine skipped (Node.Sleep).
	Stepped int `json:"stepped"`
	// Messages is the number of messages sent this round (round 1
	// includes InitWords' sends; see above).
	Messages int64 `json:"messages"`
	// Workers is the fan-out the step sweep used this round.
	Workers int `json:"workers"`
	// WallNS is the wall time of the full round (step + delivery
	// housekeeping + halt collection).
	WallNS int64 `json:"wall_ns"`
	// MaxChunkNS / MeanChunkNS measure per-chunk imbalance of the step
	// sweep: with a single worker both equal the step time. On sharded
	// runs the chunks ARE the shard segments (see Shards).
	MaxChunkNS  int64 `json:"max_chunk_ns"`
	MeanChunkNS int64 `json:"mean_chunk_ns"`
	// Shards holds the per-shard slice of a sharded run's round - live
	// nodes, messages sent, and step wall per shard, summing (wall
	// aside) to the record's own fields. Nil on flat runs.
	Shards []ShardRoundStat `json:"shards,omitempty"`
}

// ShardRoundStat is one shard's slice of a sharded round: how many of
// the round's live nodes it held, how many messages they sent, and the
// wall time of its step segment. Live and Messages are deterministic;
// WallNS is not (it is a measurement, like the record's WallNS).
type ShardRoundStat struct {
	Live     int   `json:"live"`
	Messages int64 `json:"messages"`
	WallNS   int64 `json:"wall_ns"`
}

// RunRecord is the per-Run trace record: aggregates plus the run-level
// session events (topology cache hit, pooled-scratch reuse, setup vs.
// compute wall).
type RunRecord struct {
	// Run is the probe-scoped sequence number shared with the run's
	// RoundRecords.
	Run int64 `json:"run"`
	// Phase is the orchestrator-declared label current at the start of
	// the run (see Probe.SetPhase); empty when none was set.
	Phase string `json:"phase,omitempty"`
	// Rounds / Messages / PeakLive mirror Result.
	Rounds   int   `json:"rounds"`
	Messages int64 `json:"messages"`
	PeakLive int   `json:"peak_live"`
	// Workers is the resolved pool size of the run.
	Workers int `json:"workers"`
	// TopoCached reports a session topology-cache hit; ScratchPooled
	// reports reuse of the pooled per-run scratch bundle.
	TopoCached    bool `json:"topo_cached"`
	ScratchPooled bool `json:"scratch_pooled"`
	// Shards is the shard count of the run's engine view (0 on flat
	// runs, where no per-shard telemetry is emitted).
	Shards int `json:"shards,omitempty"`
	// SetupNS is the wall time of simulation assembly (topology resolve +
	// node wiring); ComputeNS is the wall time of the round loop and
	// result collection.
	SetupNS   int64 `json:"setup_ns"`
	ComputeNS int64 `json:"compute_ns"`
	// Err is the run's error text when it aborted (budget, Node.Fail,
	// cancellation); empty on success.
	Err string `json:"err,omitempty"`
	// SinkErr marks a record staged after the probe's sink had already
	// failed: earlier records of the trace may be missing from the
	// sink's backing store (the flusher keeps delivering every batch,
	// so a sink that recovers resumes with marked records; one that
	// stays down costs a cheap rejected call per chunk). The first sink
	// error itself is returned by Probe.Close.
	SinkErr bool `json:"sink_err,omitempty"`
}

// RunStats is the compact cost summary of one engine run, carried by
// orchestrator results so every pipeline phase can be attributed wall
// time and peak live-set size alongside the LOCAL measures.
type RunStats struct {
	Rounds   int
	Messages int64
	Wall     time.Duration
	PeakLive int
}

// Stats summarizes the run as a RunStats.
func (r *Result) Stats() RunStats {
	return RunStats{Rounds: r.Rounds, Messages: r.Messages, Wall: r.Wall, PeakLive: r.PeakLive}
}

// ProbeSink receives flushed trace records. Flushes happen on a single
// background goroutine per Probe, so a sink needs no locking against the
// probe itself (only against its own other readers). The record slices
// are reused after the call returns: a sink must consume or copy them
// before returning.
//
// Sink errors are first-error-sticky: the probe records the first
// non-nil return, marks subsequently staged RunRecords with SinkErr,
// and surfaces the error from Probe.Close. The sink keeps receiving
// every later batch (a recovered sink resumes with marked records; a
// dead one just rejects cheaply), and the ring keeps draining either
// way, so runs never block on a failed sink.
type ProbeSink interface {
	FlushRounds([]RoundRecord) error
	FlushRuns([]RunRecord) error
}

// probeChunk is the RoundRecord capacity of one ring chunk; probeChunks
// is the number of chunks in flight (one being written, the rest queued
// or free). A chunk flushes when full and at run end.
const (
	probeChunk  = 256
	probeChunks = 4
)

// probeBatch is one unit of work for the flusher: a filled round-record
// chunk, a run record, or both (run end flushes the partial chunk first).
type probeBatch struct {
	rounds []RoundRecord
	run    RunRecord
	hasRun bool
}

// ProbeTotals are the monotonically growing aggregates a live Probe
// exposes (e.g. through expvar on a -serve endpoint).
type ProbeTotals struct {
	Runs     int64 `json:"runs"`
	Rounds   int64 `json:"rounds"`
	Messages int64 `json:"messages"`
}

// Probe collects round- and run-level trace records from every Run of
// the Network views it is attached to (Network.WithProbe). Records are
// staged in a preallocated ring of chunks and handed to the sink on a
// background goroutine, so the round loop never blocks on I/O unless the
// sink falls more than the whole ring behind. Close flushes the
// remainder and stops the goroutine; the probe must not be used after.
//
// A Probe may be shared by overlapping runs (its staging is mutexed),
// but record interleaving across concurrent runs is then arbitrary;
// the Run sequence number ties each record to its run.
type Probe struct {
	mu     sync.Mutex
	phase  string
	seq    int64
	cur    []RoundRecord
	free   chan []RoundRecord
	full   chan probeBatch
	done   chan struct{}
	closed bool
	totals ProbeTotals
	// errMu guards sinkErr alone and is never held across a channel
	// operation: the staging path (which can block on the free ring
	// while holding mu) and the flusher both touch it only briefly, so
	// the sticky-error bookkeeping cannot deadlock the ring.
	errMu   sync.Mutex
	sinkErr error
}

// noteSinkErr records the first sink error; later ones are dropped.
func (p *Probe) noteSinkErr(err error) {
	p.errMu.Lock()
	if p.sinkErr == nil {
		p.sinkErr = err
	}
	p.errMu.Unlock()
}

// SinkErr returns the first error the sink reported, or nil. It is
// inherently racy against in-flight flushes (a flush may fail right
// after it returns nil); Close is the authoritative read.
func (p *Probe) SinkErr() error {
	p.errMu.Lock()
	defer p.errMu.Unlock()
	return p.sinkErr
}

// NewProbe returns a Probe flushing into sink. The caller owns the probe
// and must Close it to flush trailing records and release the flusher
// goroutine; see the ownership notes in doc.go.
func NewProbe(sink ProbeSink) *Probe {
	p := &Probe{
		cur:  make([]RoundRecord, 0, probeChunk),
		free: make(chan []RoundRecord, probeChunks),
		full: make(chan probeBatch, probeChunks),
		done: make(chan struct{}),
	}
	for i := 0; i < probeChunks-1; i++ {
		p.free <- make([]RoundRecord, 0, probeChunk)
	}
	go p.flush(sink)
	return p
}

// flush is the background drain: chunks return to the free ring after
// the sink consumed them. A sink error is sticky for reporting (the
// FIRST one surfaces from Probe.Close and marks later run records with
// SinkErr) but the sink keeps receiving every batch: a transient fault
// (disk briefly full) yields a trace with a marked hole rather than a
// silent stop, and a persistently failing sink costs one cheap rejected
// call per chunk. Chunks always cycle back to the free ring, so
// producers never block on a dead sink.
func (p *Probe) flush(sink ProbeSink) {
	defer close(p.done)
	var runBuf [1]RunRecord
	for b := range p.full {
		if b.rounds != nil {
			if err := sink.FlushRounds(b.rounds); err != nil {
				p.noteSinkErr(fmt.Errorf("dist: probe sink FlushRounds: %w", err))
			}
			p.free <- b.rounds[:0]
		}
		if b.hasRun {
			runBuf[0] = b.run
			if err := sink.FlushRuns(runBuf[:]); err != nil {
				p.noteSinkErr(fmt.Errorf("dist: probe sink FlushRuns: %w", err))
			}
		}
	}
}

// SetPhase labels subsequent runs with an orchestrator-level phase name
// (snapshotted per run into RunRecord.Phase). Safe on a nil probe, so
// orchestrators call net.Probe().SetPhase(...) unconditionally.
func (p *Probe) SetPhase(name string) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.phase = name
	p.mu.Unlock()
}

// Totals returns the probe's running aggregates.
func (p *Probe) Totals() ProbeTotals {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.totals
}

// beginRun assigns the next run sequence number and snapshots the
// current phase label.
func (p *Probe) beginRun() (seq int64, phase string) {
	p.mu.Lock()
	p.seq++
	seq, phase = p.seq, p.phase
	p.mu.Unlock()
	return seq, phase
}

// round stages one round record, flushing the chunk when full.
func (p *Probe) round(rec RoundRecord) {
	p.mu.Lock()
	p.cur = append(p.cur, rec)
	p.totals.Rounds++
	p.totals.Messages += rec.Messages
	if len(p.cur) == cap(p.cur) {
		next := <-p.free
		p.full <- probeBatch{rounds: p.cur}
		p.cur = next
	}
	p.mu.Unlock()
}

// endRun flushes the staged rounds of the finished run together with its
// run record, preserving rounds-before-run ordering at the sink.
func (p *Probe) endRun(rec RunRecord) {
	rec.SinkErr = p.SinkErr() != nil
	p.mu.Lock()
	b := probeBatch{run: rec, hasRun: true}
	if len(p.cur) > 0 {
		next := <-p.free
		b.rounds = p.cur
		p.cur = next
	}
	p.totals.Runs++
	p.full <- b
	p.mu.Unlock()
}

// Close flushes any staged records and stops the flusher goroutine,
// returning once the sink has consumed everything. It returns the first
// error the sink reported over the probe's lifetime (nil when every
// flush succeeded). Close is idempotent - every call returns the same
// error - and attaching the probe to further runs after Close panics.
func (p *Probe) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		<-p.done
		return p.SinkErr()
	}
	p.closed = true
	if len(p.cur) > 0 {
		p.full <- probeBatch{rounds: p.cur}
		p.cur = nil
	}
	close(p.full)
	p.mu.Unlock()
	<-p.done
	return p.SinkErr()
}

// WithProbe returns a view of the network sharing the graph, identifier
// assignment and session whose Runs report to p (nil detaches). Like
// WithWorkers, orchestrator-internal runs on the view inherit the
// probe, so attaching one at the pipeline entry point traces every
// phase.
func (net *Network) WithProbe(p *Probe) *Network {
	c := *net
	c.probe = p
	return &c
}

// Probe returns the probe attached to this network view, or nil. Its
// nil-safe methods (SetPhase) let orchestrators label phases without
// checking.
func (net *Network) Probe() *Probe { return net.probe }

// tracer is the probe-side state of one traced run: the run's sequence
// number and phase, its compute clock, and the send counters the next
// round record diffs against. It lives on run's stack; its buffers come
// from the pooled run scratch, so a traced round allocates only the
// per-shard stats of a sharded record.
type tracer struct {
	p       *Probe
	seq     int64
	phase   string
	compute time.Time
	// sent is the cumulative send total at the last round boundary.
	sent int64
	// shards is the shard count of a sharded view (0 on flat runs);
	// cuts are the shards' vertex ranges ([0, n] on flat runs), cum and
	// prev their cumulative send counters now and at the last boundary.
	shards    int
	cuts      []int
	cum, prev []int64
}

// begin starts tracing run s on probe p.
//
//distvet:wallclock the compute clock feeds RunRecord.ComputeNS, documented non-deterministic
func (t *tracer) begin(s *simulation, p *Probe) {
	t.p = p
	t.seq, t.phase = p.beginRun()
	s.phase = t.phase
	t.compute = time.Now()
	k := 1
	if sh := s.net.sharding; sh.NumShards() > 1 {
		k = sh.NumShards()
		t.shards = k
	}
	rs := s.rs
	rs.shardCuts = grown(rs.shardCuts, k+1)
	rs.shardCum = grown(rs.shardCum, k)
	rs.shardPrev = grown(rs.shardPrev, k)
	t.cuts, t.cum, t.prev = rs.shardCuts, rs.shardCum, rs.shardPrev
	t.cuts[0], t.cuts[k] = 0, len(s.nodes)
	for j := 1; j < k; j++ {
		t.cuts[j], _ = s.net.sharding.Bounds(j)
	}
	// A resumed run's restored counters include every pre-kill send, so
	// its first round's message delta starts from them.
	clear(t.prev)
	if s.resumed {
		t.sent = s.sentSum(t.cuts, t.prev, false)
	}
}

// round executes round r of run s as a traced round: the step is timed
// per chunk (per shard segment on sharded runs), and the round's record
// carries its live count, message delta and wall times.
//
//distvet:wallclock round timing feeds only the documented non-deterministic wall fields
func (t *tracer) round(s *simulation, r int) {
	start := time.Now()
	live := len(s.live)
	cuts, w := s.workerCuts(live)
	if t.shards > 0 {
		cuts = t.liveSegs(s)
	}
	chunks := len(cuts) - 1
	s.rs.chunkNS = grown(s.rs.chunkNS, chunks)
	ns := s.rs.chunkNS
	clear(ns)
	s.stepRound(r, cuts, w > 1, ns)
	rec := RoundRecord{Run: t.seq, Round: r, Live: live, Workers: w, WallNS: time.Since(start).Nanoseconds()}
	var sum int64
	nonempty := 0
	for c := 0; c < chunks; c++ {
		rec.Stepped += s.rs.chunks[c].stepped
		if cuts[c] < cuts[c+1] {
			nonempty++
			sum += ns[c]
			rec.MaxChunkNS = max(rec.MaxChunkNS, ns[c])
		}
	}
	rec.MeanChunkNS = sum / int64(nonempty)
	cum := s.sentSum(t.cuts, t.cum, false)
	rec.Messages, t.sent = cum-t.sent, cum
	if t.shards > 0 {
		rec.Shards = make([]ShardRoundStat, t.shards)
		for j := range rec.Shards {
			rec.Shards[j] = ShardRoundStat{Live: cuts[j+1] - cuts[j], Messages: t.cum[j] - t.prev[j], WallNS: ns[j]}
		}
		copy(t.prev, t.cum)
	}
	t.p.round(rec)
}

// liveSegs returns the shard segmentation of the (ascending) live list:
// shard j's live nodes are live[segs[j]:segs[j+1]].
func (t *tracer) liveSegs(s *simulation) []int {
	segs := append(s.rs.cuts[:0], 0)
	for j := 1; j <= t.shards; j++ {
		segs = append(segs, segs[j-1]+sort.SearchInts(s.live[segs[j-1]:], t.cuts[j]))
	}
	s.rs.cuts = segs
	return segs
}

// endRun stages the run record of the finished run; res is nil when the
// round budget tripped.
//
//distvet:wallclock the compute clock feeds RunRecord.ComputeNS, documented non-deterministic
func (t *tracer) endRun(s *simulation, res *Result, err error) {
	rec := RunRecord{
		Run:           t.seq,
		Phase:         t.phase,
		PeakLive:      len(s.topo.live),
		Workers:       s.workers,
		TopoCached:    s.topoCached,
		ScratchPooled: s.scratchPooled,
		Shards:        t.shards,
		SetupNS:       s.setupNS,
		ComputeNS:     time.Since(t.compute).Nanoseconds(),
	}
	if res != nil {
		rec.Rounds, rec.Messages = res.Rounds, res.Messages
	}
	if err != nil {
		rec.Err = err.Error()
	}
	t.p.endRun(rec)
}
