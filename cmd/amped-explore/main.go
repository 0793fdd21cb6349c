// Command amped-explore runs a design-space exploration: it enumerates
// every parallelism mapping that tiles the machine, evaluates the analytical
// model for each (optionally across several batch sizes), and prints the
// ranked results — the workflow behind the paper's Case Study I.
//
//	amped-explore -model megatron-145b -batches 4096,8192,16384 -top 15
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
	"time"

	"amped/internal/efficiency"
	"amped/internal/explore"
	"amped/internal/faults"
	"amped/internal/hardware"
	"amped/internal/memkit"
	"amped/internal/model"
	"amped/internal/parallel"
	"amped/internal/pipesim"
	"amped/internal/plan"
	"amped/internal/precision"
	"amped/internal/report"
	"amped/internal/transformer"
	"amped/internal/units"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "amped-explore:", err)
		os.Exit(1)
	}
}

// run wires Ctrl-C / SIGTERM into a context and delegates to runCtx: a
// signal cancels the sweep cooperatively and the completed points are
// printed as explicit partial results instead of being thrown away.
func run(args []string, out io.Writer) error {
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	return runCtx(ctx, args, out)
}

func runCtx(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("amped-explore", flag.ContinueOnError)
	var (
		modelName = fs.String("model", "megatron-145b", "model preset")
		accelName = fs.String("accel", "a100", "accelerator preset")
		nodes     = fs.Int("nodes", 128, "node count")
		accels    = fs.Int("accels", 8, "accelerators per node")
		interGbps = fs.Float64("inter-gbps", 200, "inter-node NIC bandwidth (Gbit/s)")
		batches   = fs.String("batches", "8192", "comma-separated global batch sizes")
		target    = fs.Int("microbatch", 128, "preferred microbatch size")
		top       = fs.Int("top", 10, "print the fastest N points")
		pow2      = fs.Bool("pow2", true, "restrict degrees to powers of two")
		numBatch  = fs.Int("num-batches", 17880, "batches in the training run")
		checkMem  = fs.Bool("memory", false, "filter memory-infeasible mappings (Adam, ckpt, 1F1B)")
		csv       = fs.Bool("csv", false, "emit CSV instead of an aligned table")
		heat      = fs.Bool("heatmap", false, "also render a days heatmap of the top mappings x batches")
		ep        = fs.Bool("expert-parallel", false, "enable MoE expert parallelism in every mapping")
		maxCP     = fs.Int("max-cp", 0, "max context-parallel degree (0 or 1 disables the dimension)")
		maxVPP    = fs.Int("max-vpp", 0, "max virtual-pipeline chunks per stage (0 or 1 disables interleaving)")
		sp        = fs.Bool("sp", false, "enable sequence parallelism in every mapping")
		solve     = fs.Bool("solve", false, "print only the optimal mapping (the sweep's top-1) with cell statistics instead of the ranked table")
		workload  = fs.String("workload", "training", "workload to rank mappings for (training, inference)")
		promptLen = fs.Int("prompt", 1024, "inference prompt length in tokens")
		genTokens = fs.Int("gen", 256, "inference generated tokens per request")
		servBatch = fs.Int("serve-batch", 64, "inference concurrent-sequence count across the fleet")
		occupancy = fs.Float64("occupancy", 0, "continuous-batching occupancy in (0,1] (0 = off)")
		heteroStr = fs.String("hetero", "", "mixed accelerator pools as preset:count pairs, e.g. a100:8,h100:8 (implies -solve; stage assignment is searched jointly)")
		schedStr  = fs.String("schedule", "1f1b", "pipeline schedule for the -hetero simulation (1f1b, gpipe)")
		progress  = fs.Bool("progress", false, "report live sweep progress on stderr")
		cpuProf   = fs.String("cpuprofile", "", "write a CPU profile of the sweep to this file")
		memProf   = fs.String("memprofile", "", "write a heap profile taken after the sweep to this file")

		accelMTBF = fs.Float64("accel-mtbf", 0, "per-accelerator MTBF in seconds (0 = never fails; any MTBF flag enables failure-aware goodput)")
		nodeMTBF  = fs.Float64("node-mtbf", 0, "per-node MTBF in seconds (0 = never fails)")
		linkMTBF  = fs.Float64("link-mtbf", 0, "per-NIC fabric link MTBF in seconds (0 = never fails)")
		ckptBW    = fs.Float64("ckpt-gbs", 2, "per-worker checkpoint write bandwidth (GByte/s)")
		restart   = fs.Float64("restart", 300, "restart cost after a failure (seconds)")
		optName   = fs.String("optimizer", "adam", "optimizer whose state is checkpointed (sgd, sgd+momentum, adam)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		f, err := os.Create(*memProf)
		if err != nil {
			return fmt.Errorf("memprofile: %w", err)
		}
		defer func() {
			runtime.GC() // settle the heap so the profile reflects retained memory
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "amped-explore: memprofile:", err)
			}
			f.Close()
		}()
	}

	m, err := transformer.Preset(*modelName)
	if err != nil {
		return err
	}
	accel, err := hardware.AcceleratorPreset(*accelName)
	if err != nil {
		return err
	}
	sys := hardware.System{
		Name:          fmt.Sprintf("%dx%d %s", *nodes, *accels, accel.Name),
		Accel:         accel,
		Nodes:         *nodes,
		AccelsPerNode: *accels,
		Intra:         hardware.NVLinkA100(),
		Inter:         hardware.Link{Name: "inter", Latency: 5e-6, Bandwidth: gbps(*interGbps)},
		NICsPerNode:   *accels,
	}

	var batchList []int
	for _, s := range strings.Split(*batches, ",") {
		b, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil {
			return fmt.Errorf("bad batch size %q: %w", s, err)
		}
		batchList = append(batchList, b)
	}

	sc := explore.Scenario{
		Name:     sys.Name,
		Model:    &m,
		System:   &sys,
		Training: model.Training{NumBatches: *numBatch},
		Eff:      efficiency.Default(),
	}
	if *accelMTBF > 0 || *nodeMTBF > 0 || *linkMTBF > 0 {
		opt, err := memkit.ParseOptimizer(*optName)
		if err != nil {
			return err
		}
		sc.Training.Reliability = &faults.Spec{
			AccelMTBF:              units.Seconds(*accelMTBF),
			NodeMTBF:               units.Seconds(*nodeMTBF),
			LinkMTBF:               units.Seconds(*linkMTBF),
			CheckpointBW:           *ckptBW * 1e9,
			RestartTime:            units.Seconds(*restart),
			OptimizerBytesPerParam: opt.StateBytesPerParam(),
		}
		if err := sc.Training.Reliability.Validate(); err != nil {
			return err
		}
	}
	if *checkMem {
		sc.Memory = &memkit.Config{
			Operands:      precision.Mixed16(),
			Optimizer:     memkit.Adam,
			Checkpointing: true,
			Schedule:      memkit.OneFOneB,
		}
		sc.MemoryReserve = 0.1
	}
	opt := explore.Options{
		Batches: batchList,
		Enumerate: parallel.EnumerateOptions{
			PowerOfTwo:       *pow2,
			ExpertParallel:   *ep,
			SequenceParallel: *sp,
			MaxCP:            *maxCP,
			MaxVPP:           *maxVPP,
		},
		MicrobatchTarget: *target,
	}
	switch *workload {
	case "", "training":
	case "inference":
		return runInference(out, sc, opt,
			model.Inference{PromptLen: *promptLen, GenTokens: *genTokens},
			*servBatch, *occupancy)
	default:
		return fmt.Errorf("unknown workload %q (want training or inference)", *workload)
	}
	if *solve || *heteroStr != "" {
		return runSolve(ctx, out, sc, opt, *heteroStr, *schedStr)
	}

	// Progress counters are always wired so an interrupted run can say how
	// far it got; the live reporter goroutine remains opt-in.
	var prog explore.Progress
	opt.Progress = &prog
	if *progress {
		stop := make(chan struct{})
		defer close(stop)
		go reportProgress(os.Stderr, &prog, stop)
	}

	// A cancelled context (Ctrl-C, SIGTERM) stops the sweep cooperatively at
	// worker-chunk boundaries; the points completed so far come back with
	// the context error and are ranked and printed as explicit partial work.
	points, err := explore.SweepContext(ctx, sc, opt)
	interrupted := err != nil && errors.Is(err, context.Canceled)
	if err != nil && !interrupted {
		return err
	}
	if interrupted {
		fmt.Fprintf(os.Stderr,
			"amped-explore: interrupted after %d/%d points (%d failed); printing completed partial results\n",
			prog.Completed.Load(), prog.Total.Load(), prog.Failed.Load())
	} else if *progress {
		fmt.Fprintf(os.Stderr, "amped-explore: evaluated %d points (%d failed)\n",
			prog.Completed.Load(), prog.Failed.Load())
	}
	explore.SortByTime(points)

	rel := sc.Training.Reliability.Enabled()
	if interrupted {
		fmt.Fprintf(out, "%s: partial sweep, %d of %d points completed\n\n",
			sc.Name, len(points), prog.Total.Load())
	} else {
		fmt.Fprintf(out, "%s: %d mappings x %d batch sizes -> %d evaluable points\n\n",
			sc.Name, len(points)/len(batchList), len(batchList), len(points))
	}
	headers := []string{"mapping", "batch", "N_ub", "eff", "days", "TFLOP/s/GPU", "fits"}
	if rel {
		headers = append(headers, "goodput", "exp-days")
	}
	tab := report.NewTable(fmt.Sprintf("fastest %d configurations", *top), headers...)
	rows := 0
	for _, p := range points {
		if rows >= *top {
			break
		}
		if p.Err != nil || p.Breakdown == nil {
			continue
		}
		fits := "-"
		if p.Footprint != nil {
			fits = fmt.Sprintf("%v", p.Fits)
		}
		row := []string{
			p.Mapping.String(),
			strconv.Itoa(p.Batch),
			strconv.Itoa(p.Microbatches),
			fmt.Sprintf("%.2f", p.Breakdown.Efficiency),
			fmt.Sprintf("%.1f", p.Breakdown.TotalTime().Days()),
			fmt.Sprintf("%.1f", p.Breakdown.TFLOPSPerGPU()),
			fits,
		}
		if rel {
			row = append(row,
				fmt.Sprintf("%.4f", p.Breakdown.GoodputFraction()),
				fmt.Sprintf("%.1f", p.Breakdown.ExpectedTotalTime().Days()))
		}
		tab.AddRow(row...)
		rows++
	}
	if *csv {
		fmt.Fprint(out, tab.CSV())
	} else {
		fmt.Fprint(out, tab)
	}
	if best := explore.Best(points); best != nil {
		if rel {
			fmt.Fprintf(out, "\nbest: %v at batch %d -> %.1f days expected (%.1f failure-free, goodput %.4f)\n",
				best.Mapping, best.Batch, best.Breakdown.ExpectedTotalTime().Days(),
				best.Breakdown.TotalTime().Days(), best.Breakdown.GoodputFraction())
		} else {
			fmt.Fprintf(out, "\nbest: %v at batch %d -> %.1f days\n",
				best.Mapping, best.Batch, best.Breakdown.TotalTime().Days())
		}
	}
	if *heat && len(batchList) > 1 {
		fmt.Fprintln(out)
		fmt.Fprint(out, heatmap(points, batchList, *top))
	}
	return nil
}

// runSolve replaces the ranked table with the planner's answer: the
// optimal cell of the same space (bit-identical rank and tie-break) and how
// the space split into priced and infeasible cells. With a -hetero pool
// list it also runs the branch-and-bound search over mixed-fleet
// deployments, assigning pipeline stages to pools jointly with the mapping.
// An interrupt stops the search with an error: a partial search has no
// optimum to print.
func runSolve(ctx context.Context, out io.Writer, sc explore.Scenario, opt explore.Options, pools, schedule string) error {
	res, err := plan.SolveContext(ctx, sc, opt)
	if err != nil {
		return err
	}
	st := res.Stats
	fmt.Fprintf(out, "%s: optimum over %d cells\n", sc.Name, st.CellsTotal)
	fmt.Fprintf(out, "  priced     %6d\n", st.CellsExpanded)
	fmt.Fprintf(out, "  infeasible %6d unrankable (schedule/validation)\n", st.CellsInfeasible)
	if st.ComputeFloorSeconds > 0 {
		fmt.Fprintf(out, "  compute floor %.1f days (utilization 1, smallest batch)\n",
			st.ComputeFloorSeconds/86400)
	}
	if res.Best == nil {
		fmt.Fprintln(out, "no feasible point")
	} else {
		p := res.Best
		if sc.Training.Reliability.Enabled() {
			fmt.Fprintf(out, "best: %v at batch %d (N_ub %d) -> %.1f days expected (goodput %.4f)\n",
				p.Mapping, p.Batch, p.Microbatches,
				p.Breakdown.ExpectedTotalTime().Days(), p.Breakdown.GoodputFraction())
		} else {
			fmt.Fprintf(out, "best: %v at batch %d (N_ub %d) -> %.1f days\n",
				p.Mapping, p.Batch, p.Microbatches, p.Breakdown.TotalTime().Days())
		}
	}
	if pools == "" {
		return nil
	}

	sp, err := heteroSpace(sc, opt, pools, schedule)
	if err != nil {
		return err
	}
	hres, err := plan.SolveHetero(sp)
	if err != nil {
		return err
	}
	hst := hres.Stats
	fmt.Fprintf(out, "\nhetero fleet %s (%s): branch-and-bound over %d cells, expanded %d (%.1f%%)\n",
		pools, schedule, hst.CellsTotal, hst.CellsExpanded, 100*hst.ExpandedFraction())
	if hres.Best == nil {
		fmt.Fprintln(out, "no feasible hetero deployment")
		return nil
	}
	b := hres.Best
	fmt.Fprintf(out, "hetero best: %s -> %.1f days\n", b.ID, b.Value/86400)
	for i, pool := range sp.Pools {
		fmt.Fprintf(out, "  %-6s serves %d of %d pipeline stages\n", pool.Name, b.Counts[i], b.PP)
	}
	return nil
}

// runInference ranks serving mappings by tokens/s: the planner prices every
// mapping at the fixed concurrent-sequence count and keeps the minimal
// per-token step time, with the KV-aware feasibility gate discarding
// mappings whose decode state cannot fit. KV reads are priced whenever the
// accelerator models its memory bandwidth (roofline pricing engages
// automatically).
func runInference(out io.Writer, sc explore.Scenario, opt explore.Options,
	inf model.Inference, batch int, occupancy float64) error {
	tr := sc.Training
	tr.Roofline = sc.System.Accel.MemBW > 0
	eff := sc.Eff
	if occupancy > 0 {
		cb := efficiency.ContinuousBatching{Base: eff, Occupancy: occupancy}
		if err := cb.Validate(); err != nil {
			return err
		}
		eff = cb
	}
	sess, err := model.CompileInference(sc.Model, sc.System, tr, eff, inf)
	if err != nil {
		return err
	}
	res, err := plan.SolveInference(sess, plan.InferenceOptions{
		Batch:         batch,
		Enumerate:     opt.Enumerate,
		MemoryReserve: 0.1,
	})
	if err != nil {
		return err
	}
	st := res.Stats
	fmt.Fprintf(out, "%s: serving search over %d mappings (prompt %d, gen %d, %d concurrent seqs)\n",
		sc.Name, st.CellsTotal, inf.PromptLen, inf.GenTokens, batch)
	fmt.Fprintf(out, "  priced     %6d\n", st.CellsExpanded)
	fmt.Fprintf(out, "  kv-pruned  %6d over the KV-aware concurrency ceiling\n", st.CellsPrunedMemory)
	fmt.Fprintf(out, "  infeasible %6d unrankable (validation)\n", st.CellsInfeasible)
	if res.Best == nil {
		fmt.Fprintln(out, "no feasible serving mapping")
		return nil
	}
	b := res.Best.Breakdown
	fmt.Fprintf(out, "best: %v -> %.1f tokens/s fleet decode throughput\n",
		res.Best.Mapping, res.TokensPerSecond)
	fmt.Fprintf(out, "  TTFT        %8.2f ms\n", float64(b.TTFT())*1e3)
	fmt.Fprintf(out, "  per-token   %8.3f ms/step\n", float64(b.PerToken())*1e3)
	fmt.Fprintf(out, "  request     %8.2f s end-to-end (%d generated tokens)\n",
		float64(b.RequestLatency()), inf.GenTokens)
	fmt.Fprintf(out, "  KV cache    %8.1f MiB per sequence per accelerator\n",
		float64(b.KVBytesPerSeq)/(1<<20))
	if res.Best.MaxSeqs > 0 {
		fmt.Fprintf(out, "  max seqs    %8d per replica (KV-aware ceiling)\n", res.Best.MaxSeqs)
	}
	return nil
}

// heteroSpace assembles the mixed-fleet search space from a
// "preset:count,preset:count" pool list, inheriting the scenario's model,
// inter-node link, efficiency model and batch schedule.
func heteroSpace(sc explore.Scenario, opt explore.Options, pools, schedule string) (plan.HeteroSpace, error) {
	sp := plan.HeteroSpace{
		Model:            sc.Model,
		Interconnect:     sc.System.Inter,
		Eff:              sc.Eff,
		Batches:          opt.Batches,
		MicrobatchTarget: opt.MicrobatchTarget,
		NumBatches:       sc.Training.NumBatches,
	}
	switch schedule {
	case "", "1f1b":
		sp.Schedule = pipesim.OneFOneB
	case "gpipe":
		sp.Schedule = pipesim.GPipe
	default:
		return sp, fmt.Errorf("unknown schedule %q (want 1f1b or gpipe)", schedule)
	}
	for _, spec := range strings.Split(pools, ",") {
		name, count, ok := strings.Cut(strings.TrimSpace(spec), ":")
		if !ok {
			return sp, fmt.Errorf("bad pool %q: want preset:count", spec)
		}
		n, err := strconv.Atoi(count)
		if err != nil || n <= 0 {
			return sp, fmt.Errorf("bad pool count in %q", spec)
		}
		accel, err := hardware.AcceleratorPreset(name)
		if err != nil {
			return sp, err
		}
		sp.Pools = append(sp.Pools, plan.Pool{Name: name, Accel: accel, Count: n})
	}
	return sp, nil
}

// reportProgress polls the sweep's atomic progress counters and writes a
// status line per tick — live feedback for the long sweeps (-memory over
// thousands of cells) where a silent terminal looks like a hang.
func reportProgress(w io.Writer, prog *explore.Progress, stop <-chan struct{}) {
	tick := time.NewTicker(200 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
			total := prog.Total.Load()
			if total == 0 {
				continue // layout not finished yet
			}
			fmt.Fprintf(w, "amped-explore: %d/%d points (%d claimed, %d failed)\n",
				prog.Completed.Load(), total, prog.Claimed.Load(), prog.Failed.Load())
		}
	}
}

// heatmap renders the fastest mappings' training days across batch sizes
// as an intensity grid (cold = fast).
func heatmap(points []explore.Point, batches []int, top int) string {
	// Points are already time-sorted; take the first `top` unique mappings.
	var mappings []string
	index := map[string]int{}
	for _, p := range points {
		if p.Err != nil || p.Breakdown == nil {
			continue
		}
		key := p.Mapping.String()
		if _, ok := index[key]; !ok && len(mappings) < top {
			index[key] = len(mappings)
			mappings = append(mappings, key)
		}
	}
	grid := make([][]float64, len(mappings))
	for i := range grid {
		grid[i] = make([]float64, len(batches))
		for j := range grid[i] {
			grid[i][j] = math.NaN()
		}
	}
	col := map[int]int{}
	for j, b := range batches {
		col[b] = j
	}
	for _, p := range points {
		if p.Err != nil || p.Breakdown == nil {
			continue
		}
		if i, ok := index[p.Mapping.String()]; ok {
			grid[i][col[p.Batch]] = p.Breakdown.TotalTime().Days()
		}
	}
	labels := make([]string, len(batches))
	for j, b := range batches {
		labels[j] = strconv.Itoa(b)
	}
	return report.Heatmap("training days (cold = fast)", mappings, labels, grid)
}

// gbps converts gigabits per second to bit/s.
func gbps(v float64) units.BitsPerSecond { return units.BitsPerSecond(v * 1e9) }
