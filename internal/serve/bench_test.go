package serve

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
)

// BenchmarkServeEvaluateHit times one /v1/evaluate cache hit in process:
// the whole middleware and handler stack (admission, decode, scenario key,
// cache lookup, evaluation, response encoding) over 16 preset scenarios
// whose sessions are already cached, with no socket. It is the fixed cost
// a request pays on top of the model's own evaluation.
func BenchmarkServeEvaluateHit(b *testing.B) {
	srv := New(Config{})
	defer srv.Close()
	h := srv.Handler()
	var bodies [][]byte
	for _, preset := range []string{"gpt3-175b", "megatron-145b", "megatron-530b",
		"llama-7b", "llama-70b", "glam", "gpipe-24", "t5-large"} {
		for _, accel := range []string{"a100", "h100"} {
			bodies = append(bodies, []byte(fmt.Sprintf(`{
  "model": {"preset": %q},
  "system": {"accelerator": {"preset": %q}, "nodes": 16, "accels_per_node": 8,
    "intra": {"name": "nvlink", "latency_s": 2e-6, "bandwidth_bps": "2.4T"},
    "inter": {"name": "ib", "latency_s": 5e-6, "bandwidth_bps": "200G"}},
  "mapping": {"tp_intra": 8, "dp_inter": 16},
  "training": {"global_batch": 1024, "microbatches": 4}
}`, preset, accel)))
		}
	}
	evaluate := func(body []byte) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/evaluate", bytes.NewReader(body)))
		return rec
	}
	for _, body := range bodies {
		if rec := evaluate(body); rec.Code != http.StatusOK {
			b.Fatalf("warm-up evaluate = %d %s", rec.Code, rec.Body)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rec := evaluate(bodies[i%len(bodies)]); rec.Code != http.StatusOK {
			b.Fatalf("evaluate = %d %s", rec.Code, rec.Body)
		}
	}
}
