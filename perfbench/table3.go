package main

import (
	"fmt"
	"os"
	"reflect"
	"runtime"
	"sort"
	"time"

	"pardetect/internal/apps"
	"pardetect/internal/core"
	"pardetect/internal/cu"
	"pardetect/internal/interp"
	"pardetect/internal/ir"
	"pardetect/internal/patterns"
	"pardetect/internal/pet"
	"pardetect/internal/trace"
)

// analyzeOpts are the options of every analysis the benchmark requests: the
// pinned engine plus the operator inference the serving and corpus paths
// turn on.
func analyzeOpts(eng string) core.Options {
	return core.Options{Engine: eng, InferReductionOperator: true}
}

// table3Leg analyses all registered apps in one sequential pass. Its inputs
// are the fixed registered programs; no seed varies them.
type table3Leg struct {
	apps  []*apps.App
	progs []*ir.Program

	passMs []float64   // timed passes
	perApp [][]float64 // each app's times over the timed passes
}

func newTable3Leg() (*table3Leg, error) {
	l := &table3Leg{apps: apps.All()}
	for _, a := range l.apps {
		l.progs = append(l.progs, a.Build())
	}
	// The untimed warm-up pass.
	if _, err := l.pass(nil); err != nil {
		return nil, err
	}
	return l, nil
}

// pass runs core.Analyze on every app once, recording each app's time into
// perApp (when non-nil), and returns the results in app order.
func (l *table3Leg) pass(perApp [][]float64) ([]*core.Result, error) {
	out := make([]*core.Result, len(l.progs))
	for i, p := range l.progs {
		t0 := time.Now()
		res, err := core.Analyze(p, analyzeOpts(engine))
		if err != nil {
			return nil, fmt.Errorf("table3: %s: %w", l.apps[i].Name, err)
		}
		if perApp != nil {
			perApp[i] = append(perApp[i], ms(time.Since(t0)))
		}
		out[i] = res
	}
	return out, nil
}

// checkHeadlines compares each app's headline with the paper's Table III
// pattern.
func (l *table3Leg) checkHeadlines(rs []*core.Result, t *tally) {
	for i, r := range rs {
		t.check(r.Headline == l.apps[i].Expect.Pattern, "table3: %s headline %q, Table III says %q",
			l.apps[i].Name, r.Headline, l.apps[i].Expect.Pattern)
	}
}

// rep runs one timed pass and checks it.
func (l *table3Leg) rep(t *tally) error {
	if l.perApp == nil {
		l.perApp = make([][]float64, len(l.progs))
	}
	runtime.GC()
	t0 := time.Now()
	rs, err := l.pass(l.perApp)
	if err != nil {
		return err
	}
	l.passMs = append(l.passMs, ms(time.Since(t0)))
	for range rs {
		t.op(false)
	}
	l.checkHeadlines(rs, t)
	return nil
}

func (l *table3Leg) report(m metrics) error {
	fmt.Fprintf(os.Stderr, "perfbench: table3: %d passes\n", len(l.passMs))
	medians := make([]float64, len(l.perApp))
	for i, xs := range l.perApp {
		medians[i] = median(xs)
	}
	g, err := geomean(medians)
	if err != nil {
		return err
	}
	m.set("pass_ms", median(l.passMs), "ms")
	m.set("app_geomean_ms", g, "ms")
	return nil
}

// overheadReps is how many plain and staged passes the traced run makes in
// turn; single passes vary by about 15% from one to the next, more than
// the layer timers cost.
const overheadReps = 3

// traced makes plain core.Analyze passes and the same passes stage by stage
// under layer timers, in turn, checks that they agree, and reports the layer
// metrics of the first staged pass. It returns the median wall times of the
// plain and the staged passes.
func (l *table3Leg) traced(m metrics, t *tally) (plain, traced time.Duration, err error) {
	var ly layerTimes
	var before, after runtime.MemStats
	var plainMs, tracedMs []float64
	for rep := 0; rep < overheadReps; rep++ {
		runtime.GC()
		if rep == 0 {
			runtime.ReadMemStats(&before)
		}
		t0 := time.Now()
		ref, err := l.pass(nil)
		if err != nil {
			return 0, 0, err
		}
		plainMs = append(plainMs, ms(time.Since(t0)))
		if rep == 0 {
			runtime.ReadMemStats(&after)
		}
		l.checkHeadlines(ref, t)

		runtime.GC()
		repLy := &layerTimes{}
		if rep == 0 {
			repLy = &ly
		}
		t0 = time.Now()
		for i, p := range l.progs {
			st, err := analyzeStaged(p, repLy)
			t.op(err != nil)
			if err != nil {
				return 0, 0, fmt.Errorf("table3: staged %s: %w", l.apps[i].Name, err)
			}
			st.checkAgainst(ref[i], l.apps[i].Name, t)
		}
		tracedMs = append(tracedMs, ms(time.Since(t0)))
	}
	plain = time.Duration(median(plainMs) * 1e6)
	traced = time.Duration(median(tracedMs) * 1e6)

	var untraced time.Duration
	for _, p := range l.progs {
		mc, err := interp.New(p, interp.Options{Engine: engine})
		if err != nil {
			return 0, 0, err
		}
		t0 := time.Now()
		_, err = mc.Run()
		untraced += time.Since(t0)
		if err != nil {
			return 0, 0, err
		}
	}

	m.set("interp.exec_ms", ms(ly.run-ly.collector.consumed-ly.builder.consumed-ly.pairs.consumed), "ms")
	m.set("interp.untraced_ms", ms(untraced), "ms")
	m.set("trace.collector_ms", ms(ly.collector.consumed+ly.collectorFinish), "ms")
	m.set("trace.pair_profiler_ms", ms(ly.pairs.consumed+ly.pairsFinish), "ms")
	m.set("pet.builder_ms", ms(ly.builder.consumed+ly.builderFinish), "ms")
	m.set("pet.hotspots_ms", ms(ly.hotspots), "ms")
	m.set("patterns.classify_ms", ms(ly.classify), "ms")
	m.set("patterns.reductions_ms", ms(ly.reductions), "ms")
	m.set("patterns.pairs_ms", ms(ly.candidatePairs), "ms")
	m.set("patterns.pipelines_ms", ms(ly.pipelines), "ms")
	m.set("patterns.taskpar_ms", ms(ly.taskpar), "ms")
	m.set("patterns.geodecomp_ms", ms(ly.geodecomp), "ms")
	m.set("cu.build_ms", ms(ly.cuBuild), "ms")
	m.set("interp.steps", float64(ly.steps), "count")
	m.set("interp.events", float64(ly.collector.events+ly.pairs.events), "count")
	m.set("interp.batches", float64(ly.collector.batches+ly.pairs.batches), "count")
	m.set("trace.shadow_pages", float64(ly.shadowPages), "count")
	m.set("trace.deps", float64(ly.deps), "count")
	m.set("patterns.candidate_pairs", float64(ly.candidates), "count")
	m.set("trace.pair_samples", float64(ly.pairSamples), "count")
	m.set("cu.units", float64(ly.units), "count")
	m.set("cu.edges", float64(ly.edges), "count")
	m.set("runtime.alloc_mb", float64(after.TotalAlloc-before.TotalAlloc)/(1<<20), "MB")
	m.set("runtime.mallocs", float64(after.Mallocs-before.Mallocs), "count")
	m.set("runtime.gc_cycles", float64(after.NumGC-before.NumGC), "count")
	return plain, traced, nil
}

// timedBatch wraps one BatchTracer consumer and accumulates the time spent
// inside its TraceBatch, with the batches and events it saw.
type timedBatch struct {
	interp.BatchTracer
	consumed        time.Duration
	batches, events int64
}

func (tb *timedBatch) TraceBatch(names []string, events []interp.Event) {
	t0 := time.Now()
	tb.BatchTracer.TraceBatch(names, events)
	tb.consumed += time.Since(t0)
	tb.batches++
	tb.events += int64(len(events))
}

// layerTimes accumulates the per-layer times and counts of staged analyses.
// The builder shares the collector's batches, so only the collector's and
// the pair profiler's batch and event counts are distinct streams.
type layerTimes struct {
	run                                         time.Duration // Machine.Run of both phases
	collector, builder, pairs                   timedBatch
	collectorFinish, builderFinish, pairsFinish time.Duration
	hotspots, classify, reductions              time.Duration
	candidatePairs, pipelines                   time.Duration
	taskpar, geodecomp, cuBuild                 time.Duration

	steps, shadowPages, deps, candidates, pairSamples, units, edges int64
}

// staged is the part of a core.Result the staged analysis reproduces.
type staged struct {
	profile    *trace.Profile
	classes    map[string]patterns.LoopClass
	reductions []patterns.ReductionCandidate
	pipelines  []patterns.PipelineResult
	taskpar    map[string]*patterns.TaskParallelismResult
	geodecomp  map[string]patterns.GeoDecompResult
}

// timeInto adds the duration of f to *d.
func timeInto(d *time.Duration, f func()) {
	t0 := time.Now()
	f()
	*d += time.Since(t0)
}

// runTraced runs p once on the pinned engine with tr as its tracer, adding
// the run's wall time and steps to ly.
func runTraced(p *ir.Program, tr interp.Tracer, ly *layerTimes) error {
	mc, err := interp.New(p, interp.Options{Tracer: tr, Engine: engine})
	if err != nil {
		return err
	}
	t0 := time.Now()
	_, err = mc.Run()
	ly.run += time.Since(t0)
	ly.steps += mc.Steps()
	return err
}

// analyzeStaged repeats core.Analyze's stages through the modules' public
// functions, with the default options analyzeOpts leaves in place, timing
// each stage into ly. Each stage's consumers are wrapped in timedBatch for
// the duration of one run and their totals folded into ly afterwards.
func analyzeStaged(p *ir.Program, ly *layerTimes) (*staged, error) {
	const share = 0.02 // core.Options' default HotspotShare
	st := &staged{}

	col := &timedBatch{BatchTracer: trace.NewCollector()}
	pb := &timedBatch{BatchTracer: pet.NewBuilder()}
	if err := runTraced(p, interp.Tee(col, pb), ly); err != nil {
		return nil, fmt.Errorf("phase-1 run: %w", err)
	}
	fold(&ly.collector, col)
	fold(&ly.builder, pb)
	collector := col.BatchTracer.(*trace.Collector)
	var tree *pet.Tree
	timeInto(&ly.collectorFinish, func() { st.profile = collector.Finish(p.Name) })
	timeInto(&ly.builderFinish, func() { tree = pb.BatchTracer.(*pet.Builder).Finish() })
	ly.shadowPages += collector.ShadowPages()
	ly.deps += int64(len(st.profile.Deps))

	timeInto(&ly.classify, func() { st.classes = patterns.ClassifyLoops(p, st.profile) })
	timeInto(&ly.reductions, func() {
		st.reductions = patterns.DetectReductions(st.profile, patterns.ReductionOptions{InferOperator: true, Program: p})
	})
	var hotspots []pet.Hotspot
	timeInto(&ly.hotspots, func() { hotspots = tree.Hotspots(share) })

	var pairs []trace.PairKey
	timeInto(&ly.candidatePairs, func() { pairs = patterns.CandidatePairs(st.profile, tree, share) })
	ly.candidates += int64(len(pairs))
	if len(pairs) > 0 {
		pp := &timedBatch{BatchTracer: trace.NewPairProfiler(pairs, 0)}
		if err := runTraced(p, pp, ly); err != nil {
			return nil, fmt.Errorf("phase-2 run: %w", err)
		}
		fold(&ly.pairs, pp)
		profiler := pp.BatchTracer.(*trace.PairProfiler)
		var pts *trace.PairPoints
		timeInto(&ly.pairsFinish, func() { pts = profiler.Finish() })
		ly.shadowPages += profiler.ShadowPages()
		for _, s := range pts.Points {
			ly.pairSamples += int64(len(s))
		}
		timeInto(&ly.pipelines, func() {
			st.pipelines = patterns.AnalyzePipelines(pts, st.profile, st.classes)
			loopLine := map[string]int{}
			for _, l := range ir.ProgramLoops(p) {
				loopLine[l.ID] = l.Line
			}
			patterns.RefineFusion(st.pipelines, loopLine)
		})
	}

	st.taskpar = map[string]*patterns.TaskParallelismResult{}
	st.geodecomp = map[string]patterns.GeoDecompResult{}
	for _, h := range hotspots {
		var region cu.Region
		var err error
		divisor := int64(1)
		switch h.Node.Kind {
		case pet.Func:
			region, err = cu.FuncRegion(p, h.Node.Name)
			if h.Node.Recursive {
				divisor = h.Node.Activations
			}
		case pet.Loop:
			region, err = cu.LoopRegion(p, h.Node.Name)
		default:
			continue
		}
		if err != nil {
			continue
		}
		var g *cu.Graph
		var weights []int64
		timeInto(&ly.cuBuild, func() {
			g = cu.Build(p, region, st.profile)
			weights = g.Weights(st.profile, divisor)
		})
		ly.units += int64(len(g.CUs))
		for _, succ := range g.Succs {
			ly.edges += int64(len(succ))
		}
		timeInto(&ly.taskpar, func() { st.taskpar[region.Name()] = patterns.DetectTaskParallelism(g, weights) })
		if h.Node.Kind == pet.Func {
			var gd patterns.GeoDecompResult
			timeInto(&ly.geodecomp, func() { gd, err = patterns.DetectGeometricDecomposition(p, h.Node.Name, st.classes) })
			if err == nil {
				st.geodecomp[h.Node.Name] = gd
			}
		}
	}
	return st, nil
}

// fold adds one run's wrapper totals into an accumulator.
func fold(acc, run *timedBatch) {
	acc.consumed += run.consumed
	acc.batches += run.batches
	acc.events += run.events
}

// checkAgainst verifies that the staged analysis reproduced core.Analyze,
// so the per-layer split describes the real analysis.
func (st *staged) checkAgainst(r *core.Result, name string, t *tally) {
	t.check(st.profile.Fingerprint() == r.Profile.Fingerprint(), "table3: %s staged profile fingerprint differs", name)
	t.check(reflect.DeepEqual(st.classes, r.Classes), "table3: %s staged loop classes differ", name)
	t.check(reflect.DeepEqual(st.reductions, r.Reductions), "table3: %s staged reductions differ", name)
	t.check(reflect.DeepEqual(st.pipelines, r.Pipelines), "table3: %s staged pipelines differ", name)
	t.check(reflect.DeepEqual(keys(st.taskpar), keys(r.TaskPar)), "table3: %s staged task-parallel regions differ", name)
	t.check(reflect.DeepEqual(keys(st.geodecomp), keys(r.GeoDecomp)), "table3: %s staged geometric-decomposition functions differ", name)
}

func keys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
