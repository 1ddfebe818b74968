package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"time"

	"repro/internal/dist"
	"repro/internal/field"
)

// runConfig is one benchmark invocation.
type runConfig struct {
	workload string
	seed     int64
	// seconds is the measuring time; set-up before it is not counted.
	seconds float64
	trace   bool
	// n overrides the workload's vertex count when positive.
	n int
	// dir receives the generated DCG1 file (removed at exit).
	dir string
	// minReps is the least number of colorings of each kind a run makes.
	minReps int
}

// rep is one set-up plus one coloring.
type rep struct {
	setup       setupTimes
	call, check time.Duration
	counts      counts
	allocMB     float64
	peakHeapMB  float64
	// err is the first check the coloring failed, nil when certified.
	err error
	// layer holds the per-layer metrics of a traced rep.
	layer map[string]float64
	// warmUp marks the untimed first rep.
	warmUp bool
}

func (r *rep) colorS() float64 { return (r.call + r.check).Seconds() }

// bench runs the reps of one invocation and collects their checks.
type bench struct {
	cfg  runConfig
	in   *instance
	pins map[pinKey]counts
	ref  *counts
	reps []*rep
	// workers is the engine's resolved worker count.
	workers int
}

// result is what one invocation reports.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record stamps a run with its environment and the detail behind its
// metrics; it is printed on the line before the result.
type record struct {
	Workload   string    `json:"workload"`
	Seed       int64     `json:"seed"`
	Trace      bool      `json:"trace"`
	N          int       `json:"n"`
	M          int       `json:"m"`
	MaxDegree  int       `json:"max_degree"`
	NProc      int       `json:"nproc"`
	GoMaxProcs int       `json:"gomaxprocs"`
	Workers    int       `json:"workers"`
	GoVersion  string    `json:"go_version"`
	Pinned     bool      `json:"pinned"`
	Counts     *counts   `json:"counts,omitempty"`
	ColorS     []float64 `json:"color_s_reps"`
	// ColorSpread is the quartile distance of ColorS over its median.
	ColorSpread float64            `json:"color_s_spread"`
	SetupS      []float64          `json:"setup_s_reps"`
	Failures    []string           `json:"failures,omitempty"`
	Metrics     map[string]float64 `json:"metrics"`
	Result      *result            `json:"-"`
}

func runBench(cfg runConfig) (*record, error) {
	w, err := lookupWorkload(cfg.workload)
	if err != nil {
		return nil, err
	}
	n := w.n
	if cfg.n > 0 {
		n = cfg.n
	}
	if cfg.minReps < 1 {
		cfg.minReps = 1
	}
	pins, err := loadPins()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(cfg.dir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	in, err := prepare(w, n, cfg.seed, tmp)
	if err != nil {
		return nil, err
	}
	b := &bench{cfg: cfg, in: in, pins: pins}
	if err := b.measure(); err != nil {
		return nil, err
	}
	return b.report(), nil
}

// measure makes one warm-up rep, then alternates reps until the measuring
// time is spent and each kind ran minReps times. The warm-up fills the
// process-wide caches (memoized polynomial families, the page cache
// holding the DCG1 file) that a user pays for once per process; it is
// checked like any rep but left out of the timings. An untraced run
// makes untraced reps only; a traced run alternates untraced and traced
// reps, so the tracing overhead compares reps made under the same
// conditions.
func (b *bench) measure() error {
	warm, err := b.rep(false)
	if err != nil {
		return err
	}
	warm.warmUp = true
	b.reps = append(b.reps, warm)
	start := time.Now()
	budget := time.Duration(b.cfg.seconds * float64(time.Second))
	for i := 0; ; i++ {
		traced := b.cfg.trace && i%2 == 1
		r, err := b.rep(traced)
		if err != nil {
			return err
		}
		b.reps = append(b.reps, r)
		perKind := i + 1
		if b.cfg.trace {
			perKind = (i + 1) / 2
		}
		if perKind >= b.cfg.minReps && time.Since(start) >= budget && (!b.cfg.trace || traced) {
			return nil
		}
	}
}

// rep sets up a fresh network and colors it once. Errors from the
// coloring or its checks are recorded in the rep (they count as
// failures); only set-up errors abort the run.
func (b *bench) rep(traced bool) (*rep, error) {
	runtime.GC()
	g, net, st, err := b.in.setup()
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	r := &rep{setup: st}
	var sink *layerSink
	var probe *dist.Probe
	if traced {
		sink = &layerSink{}
		probe = dist.NewProbe(sink)
		net = net.WithProbe(probe)
		field.ResetEvalStats()
		field.SetEvalStats(true)
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	heap := startHeapSampler()
	callStart := time.Now()
	c, err := b.in.w.color(net)
	r.call = time.Since(callStart)
	r.peakHeapMB = heap.stop() / (1 << 20)
	runtime.ReadMemStats(&after)
	r.allocMB = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	var evals []field.EvalStat
	if traced {
		field.SetEvalStats(false)
		evals = field.EvalStatsSnapshot()
		if cerr := probe.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	if err != nil {
		r.err = fmt.Errorf("coloring: %w", err)
		return r, nil
	}
	checkStart := time.Now()
	r.err = b.in.check(g, c)
	r.check = time.Since(checkStart)
	r.counts = countsOf(c)
	if r.err == nil {
		r.err = b.verifyCounts(r.counts)
	}
	if traced && r.err == nil {
		r.layer, r.err = layerMetrics(r, c, sink, evals, &before, &after)
	}
	if r.err == nil && b.ref == nil {
		ref := r.counts
		b.ref = &ref
	}
	b.workers = net.Workers()
	return r, nil
}

// verifyCounts checks a coloring's counts against the pin for this
// point, if any, and against the run's earlier colorings: the pipeline
// is deterministic, so every rep, traced or not, must repeat them.
func (b *bench) verifyCounts(got counts) error {
	if want, ok := b.pins[pinKey{b.in.w.name, b.in.n, b.in.seed}]; ok && got != want {
		return fmt.Errorf("counts %+v differ from pinned %+v", got, want)
	}
	if b.ref != nil && got != *b.ref {
		return fmt.Errorf("counts %+v differ from the run's first coloring %+v", got, *b.ref)
	}
	return nil
}

// heapSampler polls the live heap while a coloring runs; stop returns the
// peak in bytes.
type heapSampler struct {
	quit, done chan struct{}
	peak       float64
}

const heapSampleEvery = 2 * time.Millisecond

func startHeapSampler() *heapSampler {
	h := &heapSampler{quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(heapSampleEvery)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			h.peak = max(h.peak, float64(sample[0].Value.Uint64()))
			select {
			case <-h.quit:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

func (h *heapSampler) stop() float64 {
	close(h.quit)
	<-h.done
	return h.peak
}

// layerSink is the in-memory ProbeSink of a traced rep. The probe calls
// it from a single flusher goroutine; read it only after Probe.Close.
type layerSink struct {
	runs      []dist.RunRecord
	barrierNS int64
}

func (s *layerSink) FlushRounds(rounds []dist.RoundRecord) error {
	for _, r := range rounds {
		s.barrierNS += r.MaxChunkNS - r.MeanChunkNS
	}
	return nil
}

func (s *layerSink) FlushRuns(runs []dist.RunRecord) error {
	s.runs = append(s.runs, runs...)
	return nil
}

// layerMetrics attributes a traced rep to phases and layers and
// reconciles it: the probe sees every round and message the Tally
// counts, and the phase walls fit inside the call. core.central_s is
// the call minus the phase walls, so
// color_s = Σ phase wall + core.central_s + check.legal_s holds by
// construction; trace.residual_s is the phase wall the engine
// stopwatches do not cover (central work inside a phase). A phase's
// engine setup plus compute is not checked against its wall: the engine
// reads Result.Wall before it stops the compute stopwatch, so the two
// differ by a few microseconds either way, and by as long as the thread
// is descheduled between the two reads.
func layerMetrics(r *rep, c *coloring, sink *layerSink, evals []field.EvalStat, before, after *runtime.MemStats) (map[string]float64, error) {
	m := make(map[string]float64, len(perLayer()))
	for _, d := range perLayer() {
		m[d.name] = 0
	}
	known := func(label string) (string, error) {
		key := "phase." + phaseKey(label)
		if _, ok := m[key+".wall_s"]; !ok {
			return "", fmt.Errorf("phase %q has no per-layer metric", label)
		}
		return key, nil
	}
	var phaseWall float64
	for _, p := range c.tally.Phases() {
		key, err := known(p.Name)
		if err != nil {
			return nil, err
		}
		m[key+".wall_s"] += p.Wall.Seconds()
		m[key+".rounds"] += float64(p.Rounds)
		m[key+".messages"] += float64(p.Messages)
		phaseWall += p.Wall.Seconds()
	}
	var rounds, messages, hits int64
	for _, run := range sink.runs {
		key, err := known(run.Phase)
		if err != nil {
			return nil, err
		}
		setup, compute := float64(run.SetupNS)/1e9, float64(run.ComputeNS)/1e9
		m[key+".setup_s"] += setup
		m[key+".compute_s"] += compute
		m["dist.setup_s"] += setup
		m["dist.compute_s"] += compute
		rounds += int64(run.Rounds)
		messages += run.Messages
		if run.TopoCached {
			hits++
		}
	}
	if rounds != int64(c.tally.Rounds()) || messages != c.tally.Messages() {
		return nil, fmt.Errorf("probe saw %d rounds/%d messages, tally %d/%d",
			rounds, messages, c.tally.Rounds(), c.tally.Messages())
	}
	call := r.call.Seconds()
	if phaseWall > call {
		return nil, fmt.Errorf("phase wall %.6fs exceeds the call's %.6fs", phaseWall, call)
	}
	runs := float64(len(sink.runs))
	m["dist.runs"] = runs
	if runs > 0 {
		m["dist.topo_hit_ratio"] = float64(hits) / runs
	}
	if m["dist.compute_s"] > 0 {
		m["dist.msgs_per_compute_s"] = float64(messages) / m["dist.compute_s"]
	}
	m["dist.barrier_wait_s"] = float64(sink.barrierNS) / 1e9

	var evalHits, evalTotal, fallbacks int64
	for _, e := range evals {
		evalHits += e.Hits
		evalTotal += e.Total()
		fallbacks += e.Fallbacks
	}
	m["field.evals"] = float64(evalTotal)
	if evalTotal > 0 {
		m["field.row_hit_ratio"] = float64(evalHits) / float64(evalTotal)
	}
	m["field.fallbacks"] = float64(fallbacks)

	m["runtime.gc_cycles"] = float64(after.NumGC - before.NumGC)
	m["runtime.gc_pause_s"] = float64(after.PauseTotalNs-before.PauseTotalNs) / 1e9
	m["runtime.alloc_mb"] = r.allocMB

	m["core.central_s"] = call - phaseWall
	m["check.legal_s"] = r.check.Seconds()
	m["trace.color_s"] = r.colorS()
	m["trace.residual_s"] = phaseWall - m["dist.setup_s"] - m["dist.compute_s"]
	return m, nil
}

// report folds the reps into the run's record and result.
func (b *bench) report() *record {
	rec := &record{
		Workload:   b.in.w.name,
		Seed:       b.in.seed,
		Trace:      b.cfg.trace,
		N:          b.in.n,
		M:          b.in.m,
		MaxDegree:  b.in.maxDegree,
		NProc:      runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Workers:    b.workers,
		GoVersion:  runtime.Version(),
		Counts:     b.ref,
		Metrics:    map[string]float64{},
	}
	_, rec.Pinned = b.pins[pinKey{b.in.w.name, b.in.n, b.in.seed}]
	var colorS, tracedS, setupS, loadS, netS, allocMB, peakMB []float64
	layers := map[string][]float64{}
	failed := 0
	for _, r := range b.reps {
		if !r.warmUp {
			setupS = append(setupS, r.setup.total().Seconds())
			loadS = append(loadS, r.setup.load.Seconds())
			netS = append(netS, r.setup.network.Seconds())
		}
		if r.err != nil {
			failed++
			rec.Failures = append(rec.Failures, r.err.Error())
			continue
		}
		if r.warmUp {
			continue
		}
		if r.layer != nil {
			tracedS = append(tracedS, r.colorS())
			for k, v := range r.layer {
				layers[k] = append(layers[k], v)
			}
			continue
		}
		colorS = append(colorS, r.colorS())
		allocMB = append(allocMB, r.allocMB)
		peakMB = append(peakMB, r.peakHeapMB)
	}
	rec.ColorS, rec.SetupS, rec.ColorSpread = colorS, setupS, spread(colorS)
	ref := counts{}
	if b.ref != nil {
		ref = *b.ref
	}
	if b.cfg.trace {
		for _, d := range perLayer() {
			rec.Metrics[d.name] = median(layers[d.name])
		}
		// Set-up splits come from every rep, traced or not.
		rec.Metrics["graph.load_s"] = median(loadS)
		rec.Metrics["dist.network_s"] = median(netS)
		if u := median(colorS); u > 0 {
			rec.Metrics["trace.overhead"] = median(tracedS) / u
		}
	} else {
		rec.Metrics["color_s"] = median(colorS)
		rec.Metrics["setup_s"] = median(setupS)
		rec.Metrics["colors"] = float64(ref.Colors)
		rec.Metrics["palette"] = float64(ref.Palette)
		rec.Metrics["rounds"] = float64(ref.Rounds)
		rec.Metrics["messages"] = float64(ref.Messages)
		rec.Metrics["alloc_mb"] = median(allocMB)
		rec.Metrics["peak_heap_mb"] = median(peakMB)
	}
	defs := endToEnd
	if b.cfg.trace {
		defs = perLayer()
	}
	res := &result{
		Correct:   failed == 0,
		Attempted: len(b.reps),
		Failed:    failed,
		Metrics:   make(map[string]metricJSON, len(defs)),
	}
	for _, d := range defs {
		res.Metrics[d.name] = metricJSON{Value: rec.Metrics[d.name], Unit: d.unit}
	}
	rec.Result = res
	return rec
}
