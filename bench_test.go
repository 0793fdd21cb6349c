// Benchmark harness: one benchmark per table and figure of the AMPeD paper,
// each regenerating the artifact and reporting its headline quantity as a
// custom metric, plus ablation benchmarks for the design knobs DESIGN.md
// calls out (bubble ratio R, collective topology, ZeRO overhead, operand
// precision, microbatch tuning).
//
//	go test -bench=. -benchmem
package amped_test

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"amped"
	"amped/internal/chaosnet"
	"amped/internal/collective"
	"amped/internal/explore"
	"amped/internal/hardware"
	"amped/internal/hetero"
	"amped/internal/model"
	"amped/internal/obs"
	"amped/internal/parallel"
	"amped/internal/pipesim"
	"amped/internal/plan"
	"amped/internal/serve"
	"amped/internal/topology"
	"amped/internal/units"
	"amped/internal/validate"
)

// BenchmarkTableII regenerates Table II (Megatron TFLOP/s/GPU) and reports
// the worst error against the published measurements.
func BenchmarkTableII(b *testing.B) {
	var maxErr float64
	for i := 0; i < b.N; i++ {
		rows, err := validate.TableII()
		if err != nil {
			b.Fatal(err)
		}
		maxErr = 0
		for _, r := range rows {
			if r.ErrVsPublished > maxErr {
				maxErr = r.ErrVsPublished
			}
		}
	}
	b.ReportMetric(maxErr, "max_err_vs_published_%")
}

// BenchmarkTableIII regenerates the GPipe speedup table and reports the
// 8-GPU speedup (published: 3.3, paper's AMPeD: 3.19).
func BenchmarkTableIII(b *testing.B) {
	var speedup float64
	for i := 0; i < b.N; i++ {
		res, err := validate.TableIII()
		if err != nil {
			b.Fatal(err)
		}
		speedup = res.Predicted[len(res.Predicted)-1]
	}
	b.ReportMetric(speedup, "speedup_8gpu")
}

// BenchmarkFig1 regenerates the utilization view of the validation runs.
func BenchmarkFig1(b *testing.B) {
	var bubble float64
	for i := 0; i < b.N; i++ {
		res, err := validate.Fig1()
		if err != nil {
			b.Fatal(err)
		}
		bubble = res.PPBubbleFraction
	}
	b.ReportMetric(bubble*100, "pp_bubble_%")
}

// fig2Worst reports the largest predicted-vs-simulated deviation of a
// Fig. 2 curve.
func fig2Worst(b *testing.B, gen func() ([]validate.Fig2Point, error)) {
	var worst float64
	for i := 0; i < b.N; i++ {
		pts, err := gen()
		if err != nil {
			b.Fatal(err)
		}
		worst = 0
		for _, p := range pts {
			if e := validate.PercentError(p.Predicted, p.Simulated); e > worst {
				worst = e
			}
		}
	}
	b.ReportMetric(worst, "max_pred_vs_sim_%")
}

// BenchmarkFig2a regenerates the DP validation curve (1-16 GPUs).
func BenchmarkFig2a(b *testing.B) { fig2Worst(b, validate.Fig2a) }

// BenchmarkFig2b regenerates the PP validation curve (2-16 GPUs).
func BenchmarkFig2b(b *testing.B) { fig2Worst(b, validate.Fig2b) }

// BenchmarkFig2c regenerates the GPT-3 batch-size sweep and reports the
// error at the paper's two anchor microbatch sizes.
func BenchmarkFig2c(b *testing.B) {
	var err12, err60 float64
	for i := 0; i < b.N; i++ {
		pts, err := validate.Fig2c()
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range pts {
			switch p.Microbatch {
			case 12:
				err12 = p.Err
			case 60:
				err60 = p.Err
			}
		}
	}
	b.ReportMetric(err12, "err_ub12_%")
	b.ReportMetric(err60, "err_ub60_%")
}

// BenchmarkFig3 regenerates the breakdown comparison and reports the
// defining shares: the PP config's bubble and the TP config's inter comm.
func BenchmarkFig3(b *testing.B) {
	var ppBubble, tpComm float64
	for i := 0; i < b.N; i++ {
		configs, err := validate.Fig3()
		if err != nil {
			b.Fatal(err)
		}
		pp, tp := configs[0].Breakdown, configs[1].Breakdown
		ppBubble = float64(pp.Bubble) / float64(pp.PerBatch())
		tpComm = float64(tp.TPInterComm) / float64(tp.PerBatch())
	}
	b.ReportMetric(ppBubble*100, "pp_bubble_share_%")
	b.ReportMetric(tpComm*100, "tp_comm_share_%")
}

// benchFigure regenerates a Case-Study-I sweep figure and reports its best
// (minimum) training time at batch 16384.
func benchFigure(b *testing.B, gen func() (*validate.Figure, error)) {
	var best float64
	for i := 0; i < b.N; i++ {
		fig, err := gen()
		if err != nil {
			b.Fatal(err)
		}
		best = 1e18
		for _, p := range fig.Points {
			if d := p.Days[16384]; d < best {
				best = d
			}
		}
	}
	b.ReportMetric(best, "best_days_B16384")
}

// BenchmarkFig4 regenerates the TP-intra / TP+PP-inter sweep.
func BenchmarkFig4(b *testing.B) { benchFigure(b, validate.Fig4) }

// BenchmarkFig5 regenerates the TP-intra / TP+DP-inter sweep.
func BenchmarkFig5(b *testing.B) { benchFigure(b, validate.Fig5) }

// BenchmarkFig6 regenerates the TP-intra / PP+DP-inter sweep (the family
// holding the paper's ~18-21 day winners).
func BenchmarkFig6(b *testing.B) { benchFigure(b, validate.Fig6) }

// BenchmarkFig7 regenerates the DP-intra / TP+PP-inter sweep.
func BenchmarkFig7(b *testing.B) { benchFigure(b, validate.Fig7) }

// BenchmarkFig8 regenerates the DP-intra / TP+DP-inter sweep (the
// efficiency-floor-artifact figure).
func BenchmarkFig8(b *testing.B) { benchFigure(b, validate.Fig8) }

// BenchmarkFig9 regenerates the DP-intra / PP+DP-inter sweep.
func BenchmarkFig9(b *testing.B) { benchFigure(b, validate.Fig9) }

// BenchmarkFig10 regenerates the low-end-system study and reports the
// PP-over-DP advantage at one accelerator per node (paper: PP much faster).
func BenchmarkFig10(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		pts, err := validate.Fig10()
		if err != nil {
			b.Fatal(err)
		}
		ratio = pts[0].DPDays / pts[0].PPDays
	}
	b.ReportMetric(ratio, "dp_over_pp_at_1nic")
}

// BenchmarkFig11 regenerates the optical-substrate study and reports the
// compound speedup of the final bar (paper: up to ~4x).
func BenchmarkFig11(b *testing.B) {
	var final float64
	for i := 0; i < b.N; i++ {
		bars, err := validate.Fig11()
		if err != nil {
			b.Fatal(err)
		}
		final = bars[len(bars)-1].Performance
	}
	b.ReportMetric(final, "compound_speedup_x")
}

// BenchmarkConclusions re-derives the five §VI-E findings.
func BenchmarkConclusions(b *testing.B) {
	var holds int
	for i := 0; i < b.N; i++ {
		cons, err := validate.CaseStudy1Conclusions()
		if err != nil {
			b.Fatal(err)
		}
		holds = 0
		for _, c := range cons {
			if c.Holds {
				holds++
			}
		}
	}
	b.ReportMetric(float64(holds), "conclusions_holding")
}

// BenchmarkEvaluate measures the raw cost of one analytical evaluation —
// the quantity that makes exhaustive design-space exploration viable.
func BenchmarkEvaluate(b *testing.B) {
	m := amped.Megatron145B()
	sys := amped.CaseStudy1System()
	est := amped.Estimator{
		Model: &m, System: &sys,
		Mapping:  amped.Mapping{TPIntra: 8, PPInter: 2, DPInter: 64},
		Training: amped.Training{Batch: amped.Batch{Global: 8192, Microbatches: 64}},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := est.Evaluate(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSessionEvaluatePoint isolates the compiled fast path: one
// compiled Session evaluated at a fixed point into a reused Breakdown —
// the inner loop of every sweep, expected to run allocation-free once the
// first evaluation has memoized the batch's aggregate.
func BenchmarkSessionEvaluatePoint(b *testing.B) {
	m := amped.Megatron145B()
	sys := amped.CaseStudy1System()
	sess, err := amped.Compile(&m, &sys, amped.Training{}, nil)
	if err != nil {
		b.Fatal(err)
	}
	mp := amped.Mapping{TPIntra: 8, PPInter: 2, DPInter: 64}
	var bd amped.Breakdown
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sess.EvaluatePoint(mp, 8192, 64, &bd); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSessionEvaluateInferencePoint isolates the serving fast path:
// one compiled InferenceSession evaluated at a fixed mapping into a reused
// InferenceBreakdown — the inner loop of the serving planner and the
// /v1/infer endpoint, expected to run allocation-free like the training
// twin. Roofline pricing is on so the KV-cache read term is exercised.
func BenchmarkSessionEvaluateInferencePoint(b *testing.B) {
	m := amped.Megatron145B()
	sys := amped.CaseStudy1System()
	sys.Accel.MemBW = 2e12
	sess, err := amped.CompileInference(&m, &sys, amped.Training{Roofline: true}, nil,
		amped.Inference{PromptLen: 1024, GenTokens: 256})
	if err != nil {
		b.Fatal(err)
	}
	mp := amped.Mapping{TPIntra: 8, PPInter: 2, DPInter: 64}
	var bd amped.InferenceBreakdown
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sess.EvaluateInferencePoint(mp, 1024, &bd); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(bd.TokensPerSecond(), "tokens/s")
}

// BenchmarkSessionEvaluatePointRoofline is BenchmarkSessionEvaluatePoint
// with roofline op pricing and gradient-comm overlap engaged — the priced-up
// hot path of the memory-bandwidth model. The gap against the plain
// benchmark is the cost of the per-class max and the overlap makespan; the
// path must stay allocation-free like the legacy one.
func BenchmarkSessionEvaluatePointRoofline(b *testing.B) {
	m := amped.Megatron145B()
	sys := amped.CaseStudy1System()
	sess, err := amped.Compile(&m, &sys, amped.Training{Roofline: true, GradOverlap: 0.9}, nil)
	if err != nil {
		b.Fatal(err)
	}
	mp := amped.Mapping{TPIntra: 8, PPInter: 2, DPInter: 64, SequenceParallel: true}
	var bd amped.Breakdown
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sess.EvaluatePoint(mp, 8192, 64, &bd); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSessionEvaluatePointTraced is BenchmarkSessionEvaluatePoint with
// an obs span recorded around every evaluation — the serving hot path,
// with span coalescing folding the repeated evaluate phases into one
// sampled span. The gap between the two benchmarks is the observability
// tax (<5% required); `make bench-serve` records both so regressions are
// visible in the BENCH_sweep.json trajectory.
func BenchmarkSessionEvaluatePointTraced(b *testing.B) {
	m := amped.Megatron145B()
	sys := amped.CaseStudy1System()
	sess, err := amped.Compile(&m, &sys, amped.Training{}, nil)
	if err != nil {
		b.Fatal(err)
	}
	mp := amped.Mapping{TPIntra: 8, PPInter: 2, DPInter: 64}
	var bd amped.Breakdown
	tr := obs.NewTrace()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp := tr.StartSpan(obs.PhaseEvaluate)
		if err := sess.EvaluatePoint(mp, 8192, 64, &bd); err != nil {
			b.Fatal(err)
		}
		sp.End()
	}
	b.StopTimer()
	if spans := tr.Spans(); len(spans) != 1 {
		b.Fatalf("coalescing failed: %d spans, want 1", len(spans))
	} else if spans[0].Count != b.N {
		b.Fatalf("coalesced span count = %d, want %d", spans[0].Count, b.N)
	}
}

// BenchmarkSweep measures a full Case-Study-I exploration: every
// power-of-two mapping of the 1024-accelerator machine at one batch size.
func BenchmarkSweep(b *testing.B) {
	m := amped.Megatron145B()
	sys := amped.CaseStudy1System()
	sc := amped.Scenario{Model: &m, System: &sys}
	opt := amped.SweepOptions{
		Batches:          []int{8192},
		Enumerate:        amped.EnumerateOptions{PowerOfTwo: true},
		MicrobatchTarget: 128,
	}
	var n int
	for i := 0; i < b.N; i++ {
		pts, err := amped.Sweep(sc, opt)
		if err != nil {
			b.Fatal(err)
		}
		n = len(pts)
	}
	b.ReportMetric(float64(n), "design_points")
}

// benchSweep measures a full exploration sweep and reports per-point cost,
// the quantity the compiled-scenario session engine optimizes.
func benchSweep(b *testing.B, sc amped.Scenario, opt amped.SweepOptions) {
	b.Helper()
	b.ReportAllocs()
	var n int
	for i := 0; i < b.N; i++ {
		pts, err := amped.Sweep(sc, opt)
		if err != nil {
			b.Fatal(err)
		}
		n = len(pts)
	}
	b.ReportMetric(float64(n), "design_points")
	if n > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/point")
	}
}

// BenchmarkSweepGPT3 sweeps GPT-3 175B (96 layers) across every
// power-of-two mapping of the 1024-accelerator machine at three batch
// sizes — the paper's Fig. 2c model at Case Study I scale.
func BenchmarkSweepGPT3(b *testing.B) {
	m := amped.GPT3175B()
	sys := amped.CaseStudy1System()
	benchSweep(b, amped.Scenario{Model: &m, System: &sys}, amped.SweepOptions{
		Batches:          []int{4096, 8192, 16384},
		Enumerate:        amped.EnumerateOptions{PowerOfTwo: true},
		MicrobatchTarget: 128,
	})
}

// BenchmarkSolveGPT3 runs the planner over the exact cell space
// BenchmarkSweepGPT3 sweeps: same model, machine, batches and enumeration.
// The planner is the sweep executor's top-1, which prices a rankable cell
// only while its column's compute floor is not above its worker's best
// key: cells_expanded reports the cells priced against cells_total (the
// split between priced and cut varies with how the workers' chunks
// interleave), and ns/op is what one exact top-1 over the space costs.
func BenchmarkSolveGPT3(b *testing.B) {
	m := amped.GPT3175B()
	sys := amped.CaseStudy1System()
	sc := amped.Scenario{Model: &m, System: &sys}
	opt := amped.SweepOptions{
		Batches:          []int{4096, 8192, 16384},
		Enumerate:        amped.EnumerateOptions{PowerOfTwo: true},
		MicrobatchTarget: 128,
	}
	b.ReportAllocs()
	var expanded, total int64
	for i := 0; i < b.N; i++ {
		res, err := plan.Solve(sc, opt)
		if err != nil {
			b.Fatal(err)
		}
		if res.Best == nil {
			b.Fatal("no feasible point")
		}
		expanded, total = res.Stats.CellsExpanded, res.Stats.CellsTotal
	}
	b.ReportMetric(float64(expanded), "cells_expanded")
	b.ReportMetric(float64(total), "cells_total")
}

// rankBenchPoints sweeps the fixed space the ranking benchmarks order:
// every power-of-two mapping of the Case Study I machine at 106 batch sizes,
// 30,740 points, the size of a served sweep space.
func rankBenchPoints(b *testing.B) []amped.SweepPoint {
	b.Helper()
	m := amped.Megatron145B()
	sys := amped.CaseStudy1System()
	var batches []int
	for k := 1; k <= 106; k++ {
		batches = append(batches, 1024*k)
	}
	pts, err := amped.Sweep(amped.Scenario{Model: &m, System: &sys}, amped.SweepOptions{
		Batches:          batches,
		Enumerate:        amped.EnumerateOptions{PowerOfTwo: true},
		MicrobatchTarget: 128,
	})
	if err != nil {
		b.Fatal(err)
	}
	return pts
}

// rankSink keeps the ranking benchmarks' results live.
var rankSink []amped.SweepPoint

// BenchmarkSortByTime measures the full ranking of a ~3·10⁴-point sweep,
// the order amped-explore prints; each iteration sorts a fresh copy of the
// sweep's output order.
func BenchmarkSortByTime(b *testing.B) {
	pts := rankBenchPoints(b)
	work := make([]amped.SweepPoint, len(pts))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		copy(work, pts)
		b.StartTimer()
		explore.SortByTime(work)
	}
	rankSink = work
	b.ReportMetric(float64(len(pts)), "design_points")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(pts)), "ns/point")
}

// BenchmarkTopByTime measures the bounded top-20 selection every serving
// path ranks with, over the same sweep as BenchmarkSortByTime.
func BenchmarkTopByTime(b *testing.B) {
	pts := rankBenchPoints(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rankSink = explore.TopByTime(pts, 20)
	}
	b.ReportMetric(float64(len(pts)), "design_points")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(pts)), "ns/point")
}

// BenchmarkSpaceTop times the sweep executor the way the shard handler and
// sweep jobs drive it: one explore.Space resolved up front (Megatron 145B on
// the Case Study I machine, power-of-two mappings with CP and VPP up to 2,
// 19 batch sizes: 26,410 cells, the size of an explore-local space), then
// Space.Top(n = 20) over consecutive 4096-cell chunks. ns/cell is the
// executor's marginal cost per cell; allocs/op counts one pass over every
// chunk. The compute-floor cut leaves about 13% of the cells to price
// (TestSpaceTopCuts checks that it fires on this space).
func BenchmarkSpaceTop(b *testing.B) {
	m := amped.Megatron145B()
	sys := amped.CaseStudy1System()
	benchSpaceTop(b, explore.Scenario{Model: &m, System: &sys}, 19,
		parallel.EnumerateOptions{PowerOfTwo: true, MaxCP: 2, MaxVPP: 2})
}

// BenchmarkSpaceTopRoofline is BenchmarkSpaceTop on a space whose cells
// cost more per degree group: GLaM priced with roofline op costs and
// expert parallelism on the Case Study I machine, power-of-two mappings
// with CP and VPP up to 4, 7 batch sizes (24,094 cells). Each roofline
// compute term walks the op classes, and VPP and the intra/inter splits
// make groups of many mappings, so the cost a shared group column saves
// shows here more than on the dense space. About 23% of its cells reach
// pricing past the compute-floor cut.
func BenchmarkSpaceTopRoofline(b *testing.B) {
	m := amped.GLaM()
	sys := amped.CaseStudy1System()
	benchSpaceTop(b, explore.Scenario{Model: &m, System: &sys, Training: amped.Training{Roofline: true}}, 7,
		parallel.EnumerateOptions{PowerOfTwo: true, MaxCP: 4, MaxVPP: 4, ExpertParallel: true})
}

// benchSpaceTop prices sc over the mappings en enumerates × nb batch sizes
// (multiples of 1024) with Space.Top(n = 20) per 4096-cell chunk.
func benchSpaceTop(b *testing.B, sc explore.Scenario, nb int, en parallel.EnumerateOptions) {
	var batches []int
	for k := 1; k <= nb; k++ {
		batches = append(batches, 1024*k)
	}
	sp, err := explore.NewSpace(sc, explore.Options{Batches: batches, Enumerate: en, MicrobatchTarget: 2})
	if err != nil {
		b.Fatal(err)
	}
	const chunk = 4096
	cells := sp.Cells()
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for lo := int64(0); lo < cells; lo += chunk {
			top, _, err := sp.Top(ctx, lo, min(lo+chunk, cells), 20)
			if err != nil || len(top) == 0 {
				b.Fatalf("Top [%d, +%d) = %d points, %v", lo, chunk, len(top), err)
			}
			rankSink = top
		}
	}
	b.ReportMetric(float64(cells), "design_points")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(cells), "ns/cell")
}

// enumerateSink keeps BenchmarkEnumerate's result alive.
var enumerateSink []parallel.Mapping

// BenchmarkEnumerate times parallel.Enumerate on the Case Study I machine
// under Megatron 145B's TP and PP caps (96 heads, 80 layers): power-of-two
// mappings with CP and VPP up to 2 (1,390 mappings, the space of
// BenchmarkSpaceTop), and every divisor with CP up to 2 and VPP up to 8
// (5,374). An exactly sized result makes B/op mappings × sizeof(Mapping)
// and allocs/op independent of the mapping count.
func BenchmarkEnumerate(b *testing.B) {
	sys := amped.CaseStudy1System()
	for _, c := range []struct {
		name string
		opt  parallel.EnumerateOptions
	}{
		{"cs1-cpvpp2", parallel.EnumerateOptions{PowerOfTwo: true, MaxCP: 2, MaxVPP: 2, MaxTP: 96, MaxPP: 80}},
		{"cs1-divisors-cp2-vpp8", parallel.EnumerateOptions{MaxCP: 2, MaxVPP: 8, MaxTP: 96, MaxPP: 80}},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				enumerateSink = parallel.Enumerate(&sys, c.opt)
			}
			b.ReportMetric(float64(len(enumerateSink)), "mappings")
		})
	}
}

// BenchmarkSweepMegatron530B sweeps the Table II 530B configuration with
// non-power-of-two mappings admitted (the larger enumeration the fast path
// is meant to unlock).
func BenchmarkSweepMegatron530B(b *testing.B) {
	m := amped.Megatron530B()
	sys := amped.CaseStudy1System()
	benchSweep(b, amped.Scenario{Model: &m, System: &sys}, amped.SweepOptions{
		Batches:          []int{2240, 4480},
		Enumerate:        amped.EnumerateOptions{PowerOfTwo: true},
		MicrobatchTarget: 128,
	})
}

// BenchmarkSweepMoE sweeps the GLaM 64B/64E Mixture-of-Experts model with
// expert parallelism enabled in every mapping (Eq. 9 active).
func BenchmarkSweepMoE(b *testing.B) {
	m := amped.GLaM()
	sys := amped.CaseStudy1System()
	benchSweep(b, amped.Scenario{Model: &m, System: &sys}, amped.SweepOptions{
		Batches:          []int{4096, 8192},
		Enumerate:        amped.EnumerateOptions{PowerOfTwo: true, ExpertParallel: true},
		MicrobatchTarget: 128,
	})
}

// BenchmarkAblationBubbleRatio quantifies the R knob of Eq. 8: the speedup
// a perfectly-overlapped pipeline schedule (R=0) would give over the naive
// one (R=1) for a deep inter-node pipeline.
func BenchmarkAblationBubbleRatio(b *testing.B) {
	m := amped.Megatron145B()
	sys := amped.CaseStudy1System()
	eval := func(r float64) float64 {
		est := amped.Estimator{
			Model: &m, System: &sys,
			Mapping: amped.Mapping{TPIntra: 8, PPInter: 64, DPInter: 2},
			Training: amped.Training{
				Batch:       amped.Batch{Global: 8192, Microbatches: 64},
				BubbleRatio: r,
			},
		}
		bd, err := est.Evaluate()
		if err != nil {
			b.Fatal(err)
		}
		return float64(bd.PerBatch())
	}
	var gain float64
	for i := 0; i < b.N; i++ {
		gain = eval(1) / eval(1e-9)
	}
	b.ReportMetric(gain, "naive_over_overlapped")
}

// BenchmarkAblationTopology compares ring against tree all-reduce for the
// latency-sensitive wide-DP gradient reduction.
func BenchmarkAblationTopology(b *testing.B) {
	m := amped.Megatron145B()
	sys := amped.CaseStudy1System()
	eval := func(kind topology.Kind) float64 {
		est := amped.Estimator{
			Model: &m, System: &sys,
			Mapping: amped.Mapping{TPIntra: 8, DPInter: 128},
			Training: amped.Training{
				Batch:    amped.Batch{Global: 8192, Microbatches: 1},
				Topology: topology.Choice{AllReduce: kind, AllToAll: topology.PairwiseAllToAll},
			},
		}
		bd, err := est.Evaluate()
		if err != nil {
			b.Fatal(err)
		}
		return float64(bd.GradInterComm)
	}
	var ratio float64
	for i := 0; i < b.N; i++ {
		ratio = eval(topology.Ring) / eval(topology.Tree)
	}
	b.ReportMetric(ratio, "ring_over_tree_gradAR")
}

// BenchmarkAblationHierarchicalAllReduce executes both all-reduce
// strategies in the collective simulator: hierarchical (Eq. 10) against a
// flat inter-node ring over all workers.
func BenchmarkAblationHierarchicalAllReduce(b *testing.B) {
	payload := units.Bits(145e9 * 32 / 64) // one worker's gradient shard
	intra := hardware.NVLinkA100()
	inter := hardware.InfinibandHDR()
	var ratio float64
	for i := 0; i < b.N; i++ {
		h := collective.HierarchicalAllReduce(8, 128, payload, intra, inter)
		flat := collective.RingAllReduce(1024, payload, inter)
		ratio = float64(flat.Time) / float64(h.Time)
	}
	b.ReportMetric(ratio, "flat_over_hierarchical")
}

// BenchmarkAblationZeRO quantifies the ZeRO-DP communication overhead
// factor against plain DP.
func BenchmarkAblationZeRO(b *testing.B) {
	m := amped.Megatron145B()
	sys := amped.CaseStudy1System()
	eval := func(overhead float64) float64 {
		est := amped.Estimator{
			Model: &m, System: &sys,
			Mapping: amped.Mapping{TPIntra: 8, PPInter: 2, DPInter: 64},
			Training: amped.Training{
				Batch:        amped.Batch{Global: 8192, Microbatches: 64},
				ZeROOverhead: overhead,
			},
		}
		bd, err := est.Evaluate()
		if err != nil {
			b.Fatal(err)
		}
		return float64(bd.PerBatch())
	}
	var slowdown float64
	for i := 0; i < b.N; i++ {
		slowdown = eval(0.5) / eval(0)
	}
	b.ReportMetric(slowdown, "zero_slowdown_x")
}

// BenchmarkAblationPrecision compares FP8/FP16/FP32 training on an
// FP8-native accelerator (H100): Eq. 2's ceil scaling plus communication
// volume effects.
func BenchmarkAblationPrecision(b *testing.B) {
	g := amped.GLaM()
	sys := amped.System{
		Name: "64x8 H100", Accel: amped.NvidiaH100(),
		Nodes: 64, AccelsPerNode: 8,
		Intra:       amped.Link{Name: "nvl", Latency: 2e-6, Bandwidth: 3.6e12},
		Inter:       amped.Link{Name: "ndr", Latency: 5e-6, Bandwidth: 4e11},
		NICsPerNode: 8,
	}
	eval := func(p amped.Precision) float64 {
		est := amped.Estimator{
			Model: &g, System: &sys,
			Mapping: amped.Mapping{TPIntra: 8, DPInter: 64, ExpertParallel: true},
			Training: amped.Training{
				Batch:    amped.Batch{Global: 4096, Microbatches: 1},
				Operands: amped.Operands{Param: p, Act: p, Nonlin: amped.FP32, Grad: amped.FP32},
			},
		}
		bd, err := est.Evaluate()
		if err != nil {
			b.Fatal(err)
		}
		return float64(bd.PerBatch())
	}
	var fp16Cost, fp32Cost float64
	for i := 0; i < b.N; i++ {
		base := eval(amped.FP8)
		fp16Cost = eval(amped.FP16) / base
		fp32Cost = eval(amped.FP32) / base
	}
	b.ReportMetric(fp16Cost, "fp16_over_fp8")
	b.ReportMetric(fp32Cost, "fp32_over_fp8")
}

// BenchmarkAblationMicrobatchTuning quantifies what automatic N_ub tuning
// buys over the naive N_ub = N_PP default for a deep pipeline.
func BenchmarkAblationMicrobatchTuning(b *testing.B) {
	m := amped.Megatron145B()
	sys := amped.CaseStudy1System()
	est := amped.Estimator{
		Model: &m, System: &sys,
		Mapping:  amped.Mapping{TPIntra: 8, PPInter: 64, DPInter: 2},
		Training: amped.Training{Batch: amped.Batch{Global: 16384}},
	}
	var gain float64
	for i := 0; i < b.N; i++ {
		naive := est
		naive.Training.Batch.Microbatches = 64 // N_ub = N_PP
		nb, err := naive.Evaluate()
		if err != nil {
			b.Fatal(err)
		}
		_, tuned, err := amped.OptimalMicrobatches(est)
		if err != nil {
			b.Fatal(err)
		}
		gain = float64(nb.PerBatch()) / float64(tuned.PerBatch())
	}
	b.ReportMetric(gain, "tuning_speedup_x")
}

// BenchmarkBaselineVsAMPeD quantifies AMPeD's value over the naive
// compute-only predictor on the Table II configurations: mean error vs the
// published measurements at identical utilization.
func BenchmarkBaselineVsAMPeD(b *testing.B) {
	var ampedErr, naiveErr float64
	for i := 0; i < b.N; i++ {
		rows, err := validate.BaselineComparison()
		if err != nil {
			b.Fatal(err)
		}
		ampedErr, naiveErr = validate.MeanErrors(rows)
	}
	b.ReportMetric(ampedErr, "amped_mean_err_%")
	b.ReportMetric(naiveErr, "baseline_mean_err_%")
}

// BenchmarkSensitivity measures a full elasticity analysis (9 evaluations).
func BenchmarkSensitivity(b *testing.B) {
	m := amped.Megatron145B()
	sys := amped.CaseStudy1System()
	est := amped.Estimator{
		Model: &m, System: &sys,
		Mapping:  amped.Mapping{TPIntra: 8, PPInter: 2, DPInter: 64},
		Training: amped.Training{Batch: amped.Batch{Global: 8192, Microbatches: 64}},
	}
	var top string
	for i := 0; i < b.N; i++ {
		res, err := amped.Sensitivity(est, 0.01)
		if err != nil {
			b.Fatal(err)
		}
		top = string(res[0].Knob)
	}
	if top == "" {
		b.Fatal("no top knob")
	}
}

// BenchmarkSolver measures one capacity-planning query (scan over machine
// sizes with a full mapping sweep at each).
func BenchmarkSolver(b *testing.B) {
	m := amped.Megatron145B()
	var nodes int
	for i := 0; i < b.N; i++ {
		plan, err := amped.MinimumNodes(amped.PlanRequest{
			Model:    &m,
			Template: amped.CaseStudy1System(),
			Training: amped.Training{
				Batch:      amped.Batch{Global: 8192},
				NumBatches: 17880,
			},
			TargetDays: 30,
			MaxNodes:   512,
		})
		if err != nil {
			b.Fatal(err)
		}
		nodes = plan.Nodes
	}
	b.ReportMetric(float64(nodes), "planned_nodes")
}

// BenchmarkAblationHeterogeneous quantifies balanced against naive layer
// assignment on a mixed A100+H100 pipeline.
func BenchmarkAblationHeterogeneous(b *testing.B) {
	m := amped.Megatron145B()
	pipeline := hetero.Pipeline{
		Model: &m,
		Stages: []hetero.Stage{
			{Accel: amped.NvidiaA100(), TP: 8},
			{Accel: amped.NvidiaA100(), TP: 8},
			{Accel: amped.NvidiaH100(), TP: 8},
			{Accel: amped.NvidiaH100(), TP: 8},
		},
		Batch:        amped.Batch{Global: 512, Microbatches: 64},
		Interconnect: amped.CaseStudy1System().Inter,
	}
	var gain float64
	for i := 0; i < b.N; i++ {
		balanced, err := pipeline.Balance()
		if err != nil {
			b.Fatal(err)
		}
		fast, err := balanced.Evaluate()
		if err != nil {
			b.Fatal(err)
		}
		naive := pipeline
		naive.Stages = make([]hetero.Stage, 4)
		copy(naive.Stages, pipeline.Stages)
		for j := range naive.Stages {
			naive.Stages[j].Layers = 20
		}
		slow, err := naive.Evaluate()
		if err != nil {
			b.Fatal(err)
		}
		gain = float64(slow.PerBatch) / float64(fast.PerBatch)
	}
	b.ReportMetric(gain, "balance_speedup_x")
}

// BenchmarkMemoryEstimate measures the memory-footprint evaluation used to
// filter sweeps.
func BenchmarkMemoryEstimate(b *testing.B) {
	m := amped.Megatron530B()
	cfg := amped.MemoryConfig{
		Operands:      amped.Mixed16(),
		Optimizer:     amped.Adam,
		Checkpointing: true,
		Schedule:      amped.OneFOneB,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := amped.MemoryEstimate(&m,
			amped.Mapping{TPIntra: 8, PPInter: 35, DPInter: 9},
			amped.Batch{Global: 2520, Microbatches: 280}, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPipesim measures the discrete-event GPipe schedule at the
// Table III scale (8 stages, 32 microbatches).
func BenchmarkPipesim(b *testing.B) {
	cfg := pipesim.Config{Stages: 8, Microbatches: 32, FwdTime: 1, BwdTime: 2, CommTime: 0.1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := pipesim.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCollectiveSim measures a simulated 1024-worker ring all-reduce.
func BenchmarkCollectiveSim(b *testing.B) {
	link := hardware.InfinibandHDR()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := collective.RingAllReduce(1024, 1e12, link)
		if r.Steps != 2046 {
			b.Fatalf("steps = %d", r.Steps)
		}
	}
}

// BenchmarkAblationCommOverlap quantifies how much of a TP-inter-heavy
// configuration's time is recoverable by compute/communication overlap.
func BenchmarkAblationCommOverlap(b *testing.B) {
	m := amped.Megatron145B()
	sys := amped.CaseStudy1System()
	eval := func(overlap float64) float64 {
		est := amped.Estimator{
			Model: &m, System: &sys,
			Mapping: amped.Mapping{TPIntra: 8, TPInter: 2, DPInter: 64},
			Training: amped.Training{
				Batch:       amped.Batch{Global: 16384, Microbatches: 1},
				CommOverlap: overlap,
			},
		}
		bd, err := est.Evaluate()
		if err != nil {
			b.Fatal(err)
		}
		return float64(bd.PerBatch())
	}
	var gain float64
	for i := 0; i < b.N; i++ {
		gain = eval(0) / eval(0.9)
	}
	b.ReportMetric(gain, "overlap_speedup_x")
}

// batchBenchCells builds the SoA columns for one compiled CS1 scenario:
// every power-of-two mapping of the 1024-accelerator machine crossed with
// the paper's three batch sizes — the same cell set a GPT-3 sweep walks.
func batchBenchCells(b *testing.B, sys *amped.System) model.BatchInput {
	b.Helper()
	maps := parallel.Enumerate(sys, parallel.EnumerateOptions{PowerOfTwo: true})
	if len(maps) == 0 {
		b.Fatal("no mappings enumerated")
	}
	var in model.BatchInput
	for _, mp := range maps {
		for _, g := range []int{4096, 8192, 16384} {
			in.Mappings = append(in.Mappings, mp)
			in.Batches = append(in.Batches, g)
			in.Microbatches = append(in.Microbatches, 0)
		}
	}
	return in
}

// BenchmarkEvaluateBatch measures the SoA batched evaluation core — the
// engine under every sweep chunk and shard — over the full CS1 GPT-3 cell
// set, reporting per-point cost alongside the scalar path it must match
// bit for bit (BenchmarkEvaluateBatchScalar).
func BenchmarkEvaluateBatch(b *testing.B) {
	m := amped.GPT3175B()
	sys := amped.CaseStudy1System()
	sess, err := amped.Compile(&m, &sys, amped.Training{}, nil)
	if err != nil {
		b.Fatal(err)
	}
	in := batchBenchCells(b, &sys)
	var out model.BatchOutput
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sess.EvaluateBatch(in, &out); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	ok := 0
	for _, err := range out.Errs {
		if err == nil {
			ok++
		}
	}
	if ok == 0 {
		b.Fatal("no cell evaluated")
	}
	b.ReportMetric(float64(ok), "design_points")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(in.Len()), "ns/point")
}

// BenchmarkEvaluateBatchScalar runs the identical cell set through the
// scalar Session.EvaluatePoint loop — the before picture of the SoA
// hoisting, kept so the batch speedup stays visible in the ledger.
func BenchmarkEvaluateBatchScalar(b *testing.B) {
	m := amped.GPT3175B()
	sys := amped.CaseStudy1System()
	sess, err := amped.Compile(&m, &sys, amped.Training{}, nil)
	if err != nil {
		b.Fatal(err)
	}
	in := batchBenchCells(b, &sys)
	var bd amped.Breakdown
	ok := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ok = 0
		for j := range in.Mappings {
			if err := sess.EvaluatePoint(in.Mappings[j], in.Batches[j], in.Microbatches[j], &bd); err == nil {
				ok++
			}
		}
	}
	b.StopTimer()
	if ok == 0 {
		b.Fatal("no cell evaluated")
	}
	b.ReportMetric(float64(ok), "design_points")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(in.Len()), "ns/point")
}

// shardedSweepDoc is a mid-size scenario for the end-to-end multi-replica
// benchmark: large enough that evaluation (not HTTP framing) dominates,
// small enough that one iteration stays in milliseconds.
const shardedSweepDoc = `{
  "model": {"name": "bench", "layers": 32, "hidden": 4096, "heads": 32, "seq_len": 2048, "vocab": 50000},
  "system": {
    "name": "16x8 a100",
    "accelerator": {"preset": "a100"},
    "nodes": 16,
    "accels_per_node": 8,
    "intra": {"name": "nvlink", "latency_s": 2e-6, "bandwidth_bps": "2.4T"},
    "inter": {"name": "hdr", "latency_s": 5e-6, "bandwidth_bps": "200G"}
  },
  "training": {"global_batch": 2048},
  "sweep": {"batches": [1024, 2048, 4096], "microbatch_target": 64, "power_of_two": true, "top": 10}
}`

// BenchmarkShardedSweep drives the full distributed path end to end: a
// coordinator fanning one sweep over three in-process replicas through
// real HTTP, NDJSON shard streams and the top-N merge. The points/s metric
// is the throughput the client sees: design points over the benchmark's
// own wall clock per request.
//
// The coordinator runs with ShardChunkCells 64, not the serving default of
// 32768: its shard streams carry a chunk line per 64 cells instead of one
// per 32768, so a profile of this benchmark overstates the coordinator's
// per-chunk decode. consumeShardStream took 28% of its CPU samples (2-vCPU
// Xeon, go1.24), but 4.1% (1.10 of 26.5 s) of the bench harness's
// sweep-sharded workload, whose fleet serves at the default.
func BenchmarkShardedSweep(b *testing.B) {
	var peers []string
	for i := 0; i < 3; i++ {
		ts := httptest.NewServer(serve.New(serve.Config{}).Handler())
		defer ts.Close()
		peers = append(peers, ts.URL)
	}
	coord := httptest.NewServer(serve.New(serve.Config{Peers: peers, ShardChunkCells: 64}).Handler())
	defer coord.Close()

	benchShardedSweep(b, coord.URL)
}

// benchShardedSweep posts shardedSweepDoc to the coordinator b.N times and
// reports the client-side rate: points over b.Elapsed() per request, so
// HTTP, fan-out and merge costs count against it.
func benchShardedSweep(b *testing.B, url string) {
	b.Helper()
	var points float64
	for i := 0; i < b.N; i++ {
		resp, err := http.Post(url+"/v1/sweep", "application/json", strings.NewReader(shardedSweepDoc))
		if err != nil {
			b.Fatal(err)
		}
		var sr serve.SweepResponse
		err = json.NewDecoder(resp.Body).Decode(&sr)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			b.Fatalf("sweep = %d, %v", resp.StatusCode, err)
		}
		points = float64(sr.TotalPoints)
	}
	b.ReportMetric(points, "design_points")
	b.ReportMetric(points*float64(b.N)/b.Elapsed().Seconds(), "points/s")
}

// BenchmarkShardedSweepChaosOff is BenchmarkShardedSweep with every peer
// connection routed through a zero-fault chaosnet proxy — the resilience
// layer's clean path, measured end to end. Its ledgered ns/op against
// BenchmarkShardedSweep's bounds what the breaker/journal engine plus the
// interposed proxy hop cost when nothing goes wrong (required <5%).
func BenchmarkShardedSweepChaosOff(b *testing.B) {
	var peers []string
	for i := 0; i < 3; i++ {
		ts := httptest.NewServer(serve.New(serve.Config{}).Handler())
		defer ts.Close()
		px, err := chaosnet.New(chaosnet.Config{Seed: int64(i + 1), Target: strings.TrimPrefix(ts.URL, "http://")})
		if err != nil {
			b.Fatal(err)
		}
		defer px.Close()
		peers = append(peers, px.URL())
	}
	coord := httptest.NewServer(serve.New(serve.Config{Peers: peers, ShardChunkCells: 64}).Handler())
	defer coord.Close()

	benchShardedSweep(b, coord.URL)
}

// shardStreamDoc is a 42072-cell space — 3506 mappings of 240x8
// accelerators, context and virtual-pipeline dimensions included, times
// twelve batch sizes — so a 4096-cell chunking splits it eleven ways.
const shardStreamDoc = `{
  "model": {"name": "bench", "layers": 32, "hidden": 4096, "heads": 32, "seq_len": 2048, "vocab": 50000},
  "system": {
    "name": "240x8 a100",
    "accelerator": {"preset": "a100"},
    "nodes": 240,
    "accels_per_node": 8,
    "intra": {"name": "nvlink", "latency_s": 2e-6, "bandwidth_bps": "2.4T"},
    "inter": {"name": "hdr", "latency_s": 5e-6, "bandwidth_bps": "200G"}
  },
  "training": {"global_batch": 2048},
  "sweep": {"batches": [480, 960, 1920, 2880, 3840, 5760, 7680, 11520, 15360, 23040, 30720, 46080],
            "microbatch_target": 16, "max_cp": 2, "max_vpp": 2, "top": 20}
}`

// BenchmarkShardStreamChunks times one in-process /v1/sweep/shard request
// (an httptest.ResponseRecorder, no socket) over shardStreamDoc's space,
// streamed in 4096-cell chunks and as a single chunk. Work a chunk repeats
// in proportion to the space rather than to the chunk (re-enumerating the
// mappings, laying out points) shows as chunk4096's ns/cell exceeding
// whole's.
func BenchmarkShardStreamChunks(b *testing.B) {
	h := serve.New(serve.Config{}).Handler()
	for _, c := range []struct {
		name  string
		cells int64
	}{{"chunk4096", 4096}, {"whole", 1 << 40}} {
		body := strings.TrimSuffix(shardStreamDoc, "}") + `, "chunk_cells": ` + strconv.FormatInt(c.cells, 10) + "}"
		shard := func() int64 {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/sweep/shard", strings.NewReader(body)))
			lines := strings.Split(strings.TrimSpace(rec.Body.String()), "\n")
			var last serve.ShardChunk
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil || !last.Done {
				b.Fatalf("shard = %d, last line %q (%v)", rec.Code, lines[len(lines)-1], err)
			}
			return last.CursorHi
		}
		b.Run(c.name, func(b *testing.B) {
			cells := shard() // compiles and caches the session outside the timer
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				shard()
			}
			b.ReportMetric(float64(cells), "design_points")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(cells), "ns/cell")
		})
	}
}
