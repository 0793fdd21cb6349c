package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sort"

	"amped/internal/config"
	"amped/internal/explore"
	"amped/internal/model"
	"amped/internal/serve"
)

// reference is the answer a response must carry, computed in-process with
// the library before any server boots.
type reference struct {
	// Evaluate: per-batch and total seconds, bit-equal to Session.Evaluate.
	perBatchS, totalS float64
	// Infer: tokens/s, equal to InferenceSession.Evaluate.
	tokensPerS float64
	// Sweep, plan and job: the ranking of the whole space.
	sweep *ranking
}

// ranking is a space's top-N as the wire renders it, plus its head alone
// and the head's exact rank key.
type ranking struct {
	total  int
	points []byte // canonical JSON of the top-N serve.SweepPoints
	best   []byte // canonical JSON of the head point
	rankS  float64
}

// sessions memoizes compiled reference sessions by scenario key, so a
// request pool of a few hundred scenarios compiles each once.
type sessions struct {
	train map[string]*model.Session
	infer map[string]*model.InferenceSession
}

func newSessions() *sessions {
	return &sessions{train: map[string]*model.Session{}, infer: map[string]*model.InferenceSession{}}
}

// referenceFor computes the answer for one generated evaluate or infer body.
func (ss *sessions) referenceFor(body []byte) (*reference, error) {
	doc, err := config.Parse(body)
	if err != nil {
		return nil, err
	}
	mp := doc.Mapping.Resolve()
	if doc.IsInference() {
		comp, inf, batch, err := doc.InferenceScenario()
		if err != nil {
			return nil, err
		}
		key := comp.InferenceKey(inf)
		sess := ss.infer[key]
		if sess == nil {
			if sess, err = comp.CompileInference(inf); err != nil {
				return nil, err
			}
			ss.infer[key] = sess
		}
		bd, err := sess.Evaluate(mp, batch)
		if err != nil {
			return nil, err
		}
		return &reference{tokensPerS: bd.TokensPerSecond()}, nil
	}
	comp, err := doc.Components()
	if err != nil {
		return nil, err
	}
	sess := ss.train[comp.Key()]
	if sess == nil {
		if sess, err = comp.Compile(); err != nil {
			return nil, err
		}
		ss.train[comp.Key()] = sess
	}
	bd, err := sess.Evaluate(mp, doc.Training.GlobalBatch, doc.Training.Microbatches)
	if err != nil {
		return nil, err
	}
	return &reference{perBatchS: float64(bd.PerBatch()), totalS: float64(bd.TotalTime())}, nil
}

// rankSpace computes a space's reference ranking: explore.Sweep, then
// SortByTime's first top points.
func rankSpace(s space) (*ranking, error) {
	sc, err := s.scenario()
	if err != nil {
		return nil, err
	}
	pts, err := explore.Sweep(sc, s.options())
	if err != nil {
		return nil, err
	}
	return rankingOf(topByTime(pts, s.req.Sweep.Top), len(pts))
}

// rankingOf renders the head of a SortByTime ranking of total points.
func rankingOf(head []explore.Point, total int) (*ranking, error) {
	if len(head) == 0 {
		return nil, fmt.Errorf("space has no valid cell")
	}
	wire := make([]serve.SweepPoint, len(head))
	for i, p := range head {
		wire[i] = wirePoint(p)
	}
	return &ranking{
		total:  total,
		points: mustJSON(wire),
		best:   mustJSON(wire[0]),
		rankS:  float64(head[0].Breakdown.ExpectedTotalTime()),
	}, nil
}

// topByTime returns SortByTime's first n points without sorting the whole
// space. Every point whose rank key is at most the n-th smallest key can
// reach the top n, and SortByTime orders that candidate set exactly as it
// orders the whole space: a sweep without a memory model returns only
// feasible points, all ranked by expected total time, ties by identity.
func topByTime(pts []explore.Point, n int) []explore.Point {
	if len(pts) <= n {
		explore.SortByTime(pts)
		return pts
	}
	keys := make([]float64, len(pts))
	for i := range pts {
		keys[i] = float64(pts[i].Breakdown.ExpectedTotalTime())
	}
	sort.Float64s(keys)
	cut := keys[n-1]
	var cand []explore.Point
	for _, p := range pts {
		if float64(p.Breakdown.ExpectedTotalTime()) <= cut {
			cand = append(cand, p)
		}
	}
	explore.SortByTime(cand)
	return cand[:n]
}

// wirePoint renders an evaluated point the way /v1/sweep does.
func wirePoint(p explore.Point) serve.SweepPoint {
	bd := p.Breakdown
	return serve.SweepPoint{
		Mapping:      p.Mapping.Normalized().String(),
		Batch:        p.Batch,
		Microbatches: p.Microbatches,
		PerBatchS:    float64(bd.PerBatch()),
		TotalDays:    bd.TotalTime().Days(),
		TFLOPSPerGPU: bd.TFLOPSPerGPU(),
		Efficiency:   bd.Efficiency,
	}
}

// check compares one response against its request's reference. A 206
// partial sweep is a failure: the space was not fully explored.
func check(req *request, status int, body []byte) error {
	if status != http.StatusOK {
		return fmt.Errorf("%s: status %d: %.200s", req.path, status, body)
	}
	want := req.want
	switch req.path {
	case "/v1/evaluate":
		var resp serve.EvaluateResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return fmt.Errorf("evaluate: %w", err)
		}
		if resp.PerBatchS != want.perBatchS || resp.TotalS != want.totalS {
			return fmt.Errorf("evaluate: per_batch_s %v total_s %v, want %v %v",
				resp.PerBatchS, resp.TotalS, want.perBatchS, want.totalS)
		}
	case "/v1/infer":
		var resp serve.InferResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return fmt.Errorf("infer: %w", err)
		}
		if resp.TokensPerSecond != want.tokensPerS {
			return fmt.Errorf("infer: tokens_per_second %v, want %v", resp.TokensPerSecond, want.tokensPerS)
		}
	case "/v1/plan":
		return checkPlan(body, want.sweep)
	default:
		return checkSweep(body, want.sweep)
	}
	return nil
}

// checkPlan checks a plan reply or finished plan job: its best point and
// rank_s must equal the head of the space's ranking.
func checkPlan(body []byte, want *ranking) error {
	var resp serve.PlanResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("plan: %w", err)
	}
	if resp.Best == nil {
		return fmt.Errorf("plan: no best point")
	}
	if got := mustJSON(*resp.Best); !bytes.Equal(got, want.best) || resp.RankS != want.rankS {
		return fmt.Errorf("plan: best %s rank_s %v, want %s %v", got, resp.RankS, want.best, want.rankS)
	}
	return nil
}

func checkSweep(body []byte, want *ranking) error {
	var resp serve.SweepResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("sweep: %w", err)
	}
	if resp.Partial {
		return fmt.Errorf("sweep: partial result")
	}
	if resp.TotalPoints != want.total {
		return fmt.Errorf("sweep: total_points %d, want %d", resp.TotalPoints, want.total)
	}
	if got := mustJSON(resp.Points); !bytes.Equal(got, want.points) {
		return fmt.Errorf("sweep: ranking differs: %s", firstDiff(resp.Points, want.points))
	}
	return nil
}

// firstDiff names the first ranked point that differs from the reference.
func firstDiff(got []serve.SweepPoint, wantJSON []byte) string {
	var want []serve.SweepPoint
	if err := json.Unmarshal(wantJSON, &want); err != nil {
		return err.Error()
	}
	for i := 0; i < len(got) || i < len(want); i++ {
		switch {
		case i >= len(got):
			return fmt.Sprintf("missing point %d: want %+v", i, want[i])
		case i >= len(want):
			return fmt.Sprintf("extra point %d: %+v", i, got[i])
		case got[i] != want[i]:
			return fmt.Sprintf("point %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
	return "identical points"
}

// digest hashes a request pool and its answers: the golden fingerprint of
// one (workload, seed).
func digest(reqs []request) string {
	h := sha256.New()
	f := func(x float64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		h.Write(b[:])
	}
	for _, r := range reqs {
		fmt.Fprintf(h, "%s\n%s\n", r.path, r.body)
		f(r.want.perBatchS)
		f(r.want.totalS)
		f(r.want.tokensPerS)
		if s := r.want.sweep; s != nil {
			fmt.Fprintf(h, "%d\n%s\n", s.total, s.points)
			f(s.rankS)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
