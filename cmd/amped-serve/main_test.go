package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

func TestRunRejectsBadFlags(t *testing.T) {
	if err := run([]string{"-no-such-flag"}, io.Discard); err == nil {
		t.Fatal("bad flag accepted")
	}
	if err := run([]string{"-addr", "999.999.999.999:70000"}, io.Discard); err == nil {
		t.Fatal("unlistenable address accepted")
	}
}

// gpt3Doc is the paper's GPT-3 175B case on a 128-node A100 machine, in the
// wire schema of /v1/evaluate.
const gpt3Doc = `{
  "model": {"preset": "gpt3-175b"},
  "system": {
    "name": "smoke 128x8 a100",
    "accelerator": {"preset": "a100"},
    "nodes": 128,
    "accels_per_node": 8,
    "intra": {"name": "nvlink", "latency_s": 2e-6, "bandwidth_bps": "2.4T"},
    "inter": {"name": "hdr", "latency_s": 5e-6, "bandwidth_bps": "200G"}
  },
  "mapping": {"tp_intra": 8, "pp_inter": 8, "dp_inter": 16},
  "training": {"global_batch": 2048, "microbatches": 64}
}`

// gpt3SweepDoc is the same machine as a /v1/sweep request: two batch sizes,
// the three fastest mappings.
const gpt3SweepDoc = `{
  "model": {"preset": "gpt3-175b"},
  "system": {
    "name": "smoke 128x8 a100",
    "accelerator": {"preset": "a100"},
    "nodes": 128,
    "accels_per_node": 8,
    "intra": {"name": "nvlink", "latency_s": 2e-6, "bandwidth_bps": "2.4T"},
    "inter": {"name": "hdr", "latency_s": 5e-6, "bandwidth_bps": "200G"}
  },
  "training": {"global_batch": 2048},
  "sweep": {"batches": [1536, 2048], "power_of_two": true, "top": 3}
}`

// TestServeSmoke is the end-to-end smoke check behind `make serve-smoke`:
// build the real binary, start it on an ephemeral port, probe /healthz,
// round-trip one /v1/evaluate against the GPT-3 preset and one small
// /v1/sweep through the sweep runner, then exercise the SIGTERM drain path. Gated on AMPED_SERVE_SMOKE=1 so plain `go test`
// stays fast.
func TestServeSmoke(t *testing.T) {
	if os.Getenv("AMPED_SERVE_SMOKE") != "1" {
		t.Skip("set AMPED_SERVE_SMOKE=1 to run the serve smoke test")
	}

	bin := filepath.Join(t.TempDir(), "amped-serve")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}

	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-debug-addr", "127.0.0.1:0", "-quiet")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	// The first stdout line announces the ephemeral address.
	sc := bufio.NewScanner(stdout)
	if !sc.Scan() {
		t.Fatalf("no listen line: %v", sc.Err())
	}
	line := sc.Text()
	i := strings.LastIndex(line, " ")
	if i < 0 || !strings.Contains(line, "listening on") {
		t.Fatalf("unexpected first line %q", line)
	}
	base := "http://" + line[i+1:]

	// The debug listener announces itself on the second line.
	if !sc.Scan() {
		t.Fatalf("no debug listen line: %v", sc.Err())
	}
	line = sc.Text()
	i = strings.LastIndex(line, " ")
	if i < 0 || !strings.Contains(line, "debug listening on") {
		t.Fatalf("unexpected second line %q", line)
	}
	debugBase := "http://" + line[i+1:]

	client := &http.Client{Timeout: 10 * time.Second}
	resp, err := client.Get(base + "/healthz")
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}

	resp, err = client.Post(base+"/v1/evaluate", "application/json", strings.NewReader(gpt3Doc))
	if err != nil {
		t.Fatalf("evaluate: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("evaluate = %d: %s", resp.StatusCode, body)
	}
	for _, want := range []string{`"per_batch_s"`, `"tflops_per_gpu"`, `"cache":"miss"`} {
		if !strings.Contains(string(body), want) {
			t.Errorf("evaluate response missing %s: %s", want, body)
		}
	}
	if id := resp.Header.Get("X-Request-Id"); id == "" {
		t.Error("evaluate response missing X-Request-Id")
	}

	resp, err = client.Post(base+"/v1/sweep", "application/json", strings.NewReader(gpt3SweepDoc))
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep = %d: %s", resp.StatusCode, body)
	}
	var sweep struct {
		Returned int `json:"returned"`
		Points   []struct {
			TotalDays float64 `json:"total_days"`
		} `json:"points"`
	}
	if err := json.Unmarshal(body, &sweep); err != nil {
		t.Fatalf("sweep response: %v: %s", err, body)
	}
	if sweep.Returned != 3 || len(sweep.Points) != 3 {
		t.Fatalf("sweep returned %d (%d points), want 3: %s", sweep.Returned, len(sweep.Points), body)
	}
	for i := 1; i < len(sweep.Points); i++ {
		if sweep.Points[i-1].TotalDays > sweep.Points[i].TotalDays {
			t.Errorf("sweep not fastest-first at %d: %s", i, body)
		}
	}

	// The evaluate request is visible on the debug listener's trace ring,
	// with its phase spans; the main listener must not serve the route.
	resp, err = client.Get(debugBase + "/debug/trace?last=5")
	if err != nil {
		t.Fatalf("debug trace: %v", err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("debug trace = %d: %s", resp.StatusCode, body)
	}
	for _, want := range []string{`"handler":"evaluate"`, `"phase":"compile"`, `"request_id"`} {
		if !strings.Contains(string(body), want) {
			t.Errorf("debug trace missing %s: %s", want, body)
		}
	}
	if resp, err = client.Get(base + "/debug/trace"); err != nil {
		t.Fatalf("main-listener debug probe: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("main listener serves /debug/trace: %d", resp.StatusCode)
	}

	// Graceful shutdown: SIGTERM must drain and exit 0, and the drain
	// messages must reach stdout.
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	var rest strings.Builder
	for sc.Scan() {
		fmt.Fprintln(&rest, sc.Text())
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("exit after SIGTERM: %v (output: %s)", err, rest.String())
	}
	out := rest.String()
	if !strings.Contains(out, "draining") || !strings.Contains(out, "drained") {
		t.Errorf("drain messages missing from %q", out)
	}
}
