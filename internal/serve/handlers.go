package serve

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"time"

	"amped/internal/config"
	"amped/internal/explore"
	"amped/internal/memkit"
	"amped/internal/model"
	"amped/internal/obs"
)

// cachedSession resolves a request's scenario to a compiled session of
// type T (a model.Session, or a model.InferenceSession under the
// domain-separated inference key) through the LRU with singleflight
// compilation: a hit shares the cached (immutable) session, the first miss
// compiles (recording the compile phase span on its own trace), and
// concurrent misses for the same key join that compile instead of
// duplicating it. It returns the key it looked the scenario up under, which
// responses echo as scenario_key so no request hashes its scenario twice,
// and the status "hit", "miss" or "join", which is tallied into the cache
// counters and echoed in responses.
func cachedSession[T any](ctx context.Context, s *Server, keyOf func() string, compile func() (T, error)) (sess T, key, status string, err error) {
	sp := obs.FromContext(ctx).StartSpan(obs.PhaseCache)
	key = keyOf()
	cached, status, err := s.cache.getOrCompile(key, func() (any, error) {
		csp := obs.FromContext(ctx).StartSpan(obs.PhaseCompile)
		defer csp.End()
		s.met.compiles.inc()
		return compile()
	})
	sp.End()
	if err != nil {
		return sess, key, status, err
	}
	s.met.cacheStatus(status)
	return cached.(T), key, status, nil
}

// readBody slurps a bounded request body.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		return nil, fmt.Errorf("reading body: %w", err)
	}
	return body, nil
}

// EvaluateResponse is the /v1/evaluate reply: the full per-batch breakdown
// plus the headline metrics of the paper's tables.
type EvaluateResponse struct {
	ScenarioKey  string             `json:"scenario_key"`
	Cache        string             `json:"cache"`
	Mapping      string             `json:"mapping"`
	Batch        int                `json:"batch"`
	Microbatch   float64            `json:"microbatch"`
	Efficiency   float64            `json:"efficiency"`
	Workers      int                `json:"workers"`
	Breakdown    map[string]float64 `json:"breakdown_s"`
	PerBatchS    float64            `json:"per_batch_s"`
	TotalS       float64            `json:"total_s"`
	TotalDays    float64            `json:"total_days"`
	TFLOPSPerGPU float64            `json:"tflops_per_gpu"`
	// Reliability fields, present only when the document carries a
	// reliability section: the expected goodput fraction, the failure
	// overhead it derives from, the chosen checkpoint cadence, and the
	// failure-inflated training time.
	Goodput             float64 `json:"goodput,omitempty"`
	FailureOverhead     float64 `json:"failure_overhead,omitempty"`
	MTBFSeconds         float64 `json:"mtbf_s,omitempty"`
	CheckpointIntervalS float64 `json:"checkpoint_interval_s,omitempty"`
	CheckpointWriteS    float64 `json:"checkpoint_write_s,omitempty"`
	ExpectedTotalS      float64 `json:"expected_total_s,omitempty"`
	ExpectedTotalDays   float64 `json:"expected_total_days,omitempty"`
}

// handleEvaluate prices one design point. The request body is exactly a
// config.Document — the same schema the amped CLI loads from disk — so any
// committed scenario file POSTs unmodified.
func (s *Server) handleEvaluate(w http.ResponseWriter, r *http.Request) {
	if !s.admit(w, r) {
		return
	}
	defer s.lim.release()
	tr := obs.FromContext(r.Context())

	sp := tr.StartSpan(obs.PhaseDecode)
	body, err := s.readBody(w, r)
	if err != nil {
		sp.End()
		s.error(w, r, http.StatusBadRequest, err.Error())
		return
	}
	doc, err := config.Parse(body)
	if err != nil {
		sp.End()
		s.error(w, r, http.StatusBadRequest, err.Error())
		return
	}
	comp, err := doc.Components()
	sp.End()
	if err != nil {
		s.error(w, r, http.StatusBadRequest, err.Error())
		return
	}
	sess, key, status, err := cachedSession(r.Context(), s, comp.Key, comp.Compile)
	if err != nil {
		s.error(w, r, http.StatusBadRequest, err.Error())
		return
	}

	mp := doc.Mapping.Resolve()
	esp := tr.StartSpan(obs.PhaseEvaluate)
	bd, err := sess.Evaluate(mp, doc.Training.GlobalBatch, doc.Training.Microbatches)
	esp.End()
	if err != nil {
		// The scenario compiled but this point is unusable (invalid
		// mapping/batch combination, non-finite result): the client's
		// input, the client's 4xx.
		s.error(w, r, http.StatusUnprocessableEntity, err.Error())
		return
	}

	breakdown := make(map[string]float64, 11)
	for _, c := range bd.Components() {
		breakdown[c.Name] = float64(c.Time)
	}
	resp := EvaluateResponse{
		ScenarioKey:  key,
		Cache:        status,
		Mapping:      mp.Normalized().String(),
		Batch:        doc.Training.GlobalBatch,
		Microbatch:   bd.Microbatch,
		Efficiency:   bd.Efficiency,
		Workers:      bd.Workers,
		Breakdown:    breakdown,
		PerBatchS:    float64(bd.PerBatch()),
		TotalS:       float64(bd.TotalTime()),
		TotalDays:    bd.TotalTime().Days(),
		TFLOPSPerGPU: bd.TFLOPSPerGPU(),
	}
	if e := bd.Reliability; e.Enabled() {
		resp.Goodput = bd.GoodputFraction()
		resp.FailureOverhead = e.Overhead()
		resp.MTBFSeconds = e.MTBF
		resp.CheckpointIntervalS = e.CheckpointInterval
		resp.CheckpointWriteS = e.CheckpointWrite
		resp.ExpectedTotalS = float64(bd.ExpectedTotalTime())
		resp.ExpectedTotalDays = bd.ExpectedTotalTime().Days()
	}
	wsp := tr.StartSpan(obs.PhaseEncode)
	writeJSON(w, http.StatusOK, resp)
	wsp.End()
}

// InferResponse is the /v1/infer reply: the serving phase breakdown plus
// the headline serving metrics.
type InferResponse struct {
	ScenarioKey string             `json:"scenario_key"`
	Cache       string             `json:"cache"`
	Mapping     string             `json:"mapping"`
	Batch       int                `json:"batch"`
	PromptLen   int                `json:"prompt_len"`
	GenTokens   int                `json:"gen_tokens"`
	Efficiency  float64            `json:"efficiency"`
	Workers     int                `json:"workers"`
	Breakdown   map[string]float64 `json:"breakdown_s"`
	// TTFTS is the time to first token (prefill plus the first decode
	// pipeline transit); PerTokenS the steady-state decode step time;
	// RequestS the end-to-end request latency.
	TTFTS           float64 `json:"ttft_s"`
	PerTokenS       float64 `json:"per_token_s"`
	RequestS        float64 `json:"request_s"`
	TokensPerSecond float64 `json:"tokens_per_second"`
	// KVBytesPerSeq is one sequence's KV-cache footprint per accelerator at
	// the full context; MaxConcurrentSeqs the KV-aware per-replica ceiling
	// (present only when the accelerator's memory is modeled).
	KVBytesPerSeq     float64 `json:"kv_bytes_per_seq"`
	MaxConcurrentSeqs int     `json:"max_concurrent_seqs,omitempty"`
}

// handleInfer prices one serving design point. The request body is a
// config.Document with workload: "inference" — the same schema the CLIs
// load from disk.
func (s *Server) handleInfer(w http.ResponseWriter, r *http.Request) {
	if !s.admit(w, r) {
		return
	}
	defer s.lim.release()
	tr := obs.FromContext(r.Context())

	sp := tr.StartSpan(obs.PhaseDecode)
	body, err := s.readBody(w, r)
	if err != nil {
		sp.End()
		s.error(w, r, http.StatusBadRequest, err.Error())
		return
	}
	doc, err := config.Parse(body)
	if err != nil {
		sp.End()
		s.error(w, r, http.StatusBadRequest, err.Error())
		return
	}
	if !doc.IsInference() {
		sp.End()
		s.error(w, r, http.StatusBadRequest, `infer request: document must set workload: "inference"`)
		return
	}
	comp, inf, batch, err := doc.InferenceScenario()
	sp.End()
	if err != nil {
		s.error(w, r, http.StatusBadRequest, err.Error())
		return
	}
	sess, key, status, err := cachedSession(r.Context(), s,
		func() string { return comp.InferenceKey(inf) },
		func() (*model.InferenceSession, error) { return comp.CompileInference(inf) })
	if err != nil {
		s.error(w, r, http.StatusBadRequest, err.Error())
		return
	}

	mp := doc.Mapping.Resolve()
	esp := tr.StartSpan(obs.PhaseEvaluate)
	bd, err := sess.Evaluate(mp, batch)
	esp.End()
	if err != nil {
		// The scenario compiled but this point is unusable: the client's
		// input, the client's 4xx.
		s.error(w, r, http.StatusUnprocessableEntity, err.Error())
		return
	}

	breakdown := make(map[string]float64, 12)
	for _, c := range bd.Components() {
		breakdown[c.Name] = float64(c.Time)
	}
	resp := InferResponse{
		ScenarioKey:     key,
		Cache:           status,
		Mapping:         mp.Normalized().String(),
		Batch:           batch,
		PromptLen:       bd.PromptLen,
		GenTokens:       bd.GenTokens,
		Efficiency:      bd.Efficiency,
		Workers:         bd.Workers,
		Breakdown:       breakdown,
		TTFTS:           float64(bd.TTFT()),
		PerTokenS:       float64(bd.PerToken()),
		RequestS:        float64(bd.RequestLatency()),
		TokensPerSecond: bd.TokensPerSecond(),
		KVBytesPerSeq:   float64(bd.KVBytesPerSeq),
	}
	if accel := sess.System().Accel; accel.Memory > 0 {
		maxSeqs, err := memkit.MaxConcurrentSeqs(sess.Model(), mp.Normalized(),
			inf.PromptLen+inf.GenTokens, sess.Training().Operands, accel, 0)
		if err == nil {
			resp.MaxConcurrentSeqs = maxSeqs
		}
	}
	wsp := tr.StartSpan(obs.PhaseEncode)
	writeJSON(w, http.StatusOK, resp)
	wsp.End()
}

// SweepRequest is the /v1/sweep body: the scenario sections of a
// config.Document (no mapping — the sweep enumerates them) plus the sweep
// parameters.
type SweepRequest struct {
	Model    config.Model    `json:"model"`
	System   config.System   `json:"system"`
	Training config.Training `json:"training"`
	// Reliability enables failure-aware goodput modeling; the sweep then
	// ranks points by expected (failure-inflated) total time.
	Reliability *config.Reliability `json:"reliability,omitempty"`
	Sweep       SweepParams         `json:"sweep"`
}

// SweepParams selects what the sweep varies and how much comes back.
type SweepParams struct {
	// Batches lists the global batch sizes to sweep (required).
	Batches []int `json:"batches"`
	// MicrobatchTarget sets the preferred microbatch size (explore
	// semantics; 0 keeps the recipe's schedule).
	MicrobatchTarget int `json:"microbatch_target,omitempty"`
	// PowerOfTwo restricts enumerated degrees to powers of two.
	PowerOfTwo bool `json:"power_of_two,omitempty"`
	// ExpertParallel enables MoE expert parallelism in every mapping.
	ExpertParallel bool `json:"expert_parallel,omitempty"`
	// MaxTP / MaxPP cap the enumerated degrees (0 = model limits).
	MaxTP int `json:"max_tp,omitempty"`
	MaxPP int `json:"max_pp,omitempty"`
	// MaxCP caps the context-parallel degree (0 or 1 disables the
	// dimension, keeping the legacy enumeration).
	MaxCP int `json:"max_cp,omitempty"`
	// MaxVPP caps the virtual-pipeline chunk count (0 or 1 disables
	// interleaving).
	MaxVPP int `json:"max_vpp,omitempty"`
	// SequenceParallel enables sequence parallelism on every mapping.
	SequenceParallel bool `json:"sequence_parallel,omitempty"`
	// Top truncates the response to the fastest N points (default 20).
	Top int `json:"top,omitempty"`
	// KeepInvalid includes failed points (with their errors) in the
	// ranking's tail instead of dropping them.
	KeepInvalid bool `json:"keep_invalid,omitempty"`
}

// SweepResponse is the /v1/sweep reply.
type SweepResponse struct {
	ScenarioKey string `json:"scenario_key"`
	Cache       string `json:"cache"`
	// TotalPoints counts the points the sweep completed; Returned is the
	// length of Points after Top-truncation; Truncated flags the cut.
	TotalPoints int  `json:"total_points"`
	Returned    int  `json:"returned"`
	Truncated   bool `json:"truncated"`
	// Partial is true when the request deadline expired mid-sweep and
	// Points holds only the cells that finished (HTTP 206), on a single
	// node or a coordinator alike. The design
	// space was NOT fully explored; the ranking may omit better points.
	Partial   bool         `json:"partial,omitempty"`
	DurationS float64      `json:"duration_s"`
	Points    []SweepPoint `json:"points"`
	// Sharded and Peers describe coordinator fan-out: set when this response
	// was merged from peer shards rather than evaluated locally.
	Sharded bool `json:"sharded,omitempty"`
	Peers   int  `json:"peers,omitempty"`
	// PointsPerSecond is TotalPoints over DurationS, the aggregate
	// throughput across all shards (a synchronous sweep also observes it
	// into amped_sweep_points_per_second).
	PointsPerSecond float64 `json:"points_per_second,omitempty"`
}

// SweepPoint is one ranked design point.
type SweepPoint struct {
	Mapping      string  `json:"mapping"`
	Batch        int     `json:"batch"`
	Microbatches int     `json:"microbatches"`
	PerBatchS    float64 `json:"per_batch_s,omitempty"`
	TotalDays    float64 `json:"total_days,omitempty"`
	TFLOPSPerGPU float64 `json:"tflops_per_gpu,omitempty"`
	Efficiency   float64 `json:"efficiency,omitempty"`
	// Goodput and ExpectedTotalDays appear when the request carries a
	// reliability section (the rank key is the expected total time).
	Goodput           float64 `json:"goodput,omitempty"`
	ExpectedTotalDays float64 `json:"expected_total_days,omitempty"`
	Err               string  `json:"error,omitempty"`
}

// toSweepPoint renders one evaluated design point for the wire.
func toSweepPoint(p explore.Point) SweepPoint {
	sp := SweepPoint{
		Mapping:      p.Mapping.Normalized().String(),
		Batch:        p.Batch,
		Microbatches: p.Microbatches,
	}
	if p.Err != nil {
		sp.Err = p.Err.Error()
	} else if p.Breakdown != nil {
		sp.PerBatchS = float64(p.Breakdown.PerBatch())
		sp.TotalDays = p.Breakdown.TotalTime().Days()
		sp.TFLOPSPerGPU = p.Breakdown.TFLOPSPerGPU()
		sp.Efficiency = p.Breakdown.Efficiency
		if p.Breakdown.Reliability.Enabled() {
			sp.Goodput = p.Breakdown.GoodputFraction()
			sp.ExpectedTotalDays = p.Breakdown.ExpectedTotalTime().Days()
		}
	}
	return sp
}

// handleSweep answers a design-space exploration synchronously: compile,
// run into a fresh, unjournaled sweepState with the one sweep runner (peer
// fan-out when this server coordinates peers, local Space.Top chunks
// otherwise), respond. A local sweep takes one limiter slot; a coordinator
// takes none, since its peers admit the real work and a peer list naming
// this server would otherwise deadlock a MaxInFlight=1 deployment against
// itself. A deadline answers the same way from either source: the merged
// points as an explicit 206 Partial Content when any point completed, a 504
// otherwise.
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	if s.peers == nil {
		if !s.admit(w, r) {
			return
		}
		defer s.lim.release()
	} else if !s.accept(w, r) {
		return
	}
	tr := obs.FromContext(r.Context())

	sp := tr.StartSpan(obs.PhaseDecode)
	cs, err := s.readSweep(w, r, new(SweepRequest))
	sp.End()
	if err != nil {
		s.error(w, r, http.StatusBadRequest, err.Error())
		return
	}

	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()
	st := &sweepState{dups: &s.met.shardDuplicates}
	start := time.Now()
	ssp := tr.StartSpan(obs.PhaseSweep)
	err = s.runSweep(ctx, cs, st)
	ssp.End()
	elapsed := time.Since(start)

	code := http.StatusOK
	if err != nil {
		switch je := classifyErr(err); je.class {
		case errClassTimeout:
			if st.completed() == 0 {
				s.error(w, r, http.StatusGatewayTimeout,
					fmt.Sprintf("sweep exceeded the %v request timeout before any point completed", s.cfg.RequestTimeout))
				return
			}
			// Finished work is worth returning: label it partial, loudly.
			code = http.StatusPartialContent
		case errClassCancelled:
			s.error(w, r, statusForContextErr(ctx.Err()), "sweep cancelled: client went away")
			return
		default:
			// Stalled or no live peers: only the fan-out fails this way.
			s.error(w, r, http.StatusBadGateway, "sharded sweep incomplete: "+je.msg)
			return
		}
	}
	resp := s.sweepResponse(cs, st, elapsed, code == http.StatusPartialContent)
	if resp.PointsPerSecond > 0 {
		s.met.sweepRate.Observe(resp.PointsPerSecond)
	}
	wsp := tr.StartSpan(obs.PhaseEncode)
	writeJSON(w, code, resp)
	wsp.End()
}
