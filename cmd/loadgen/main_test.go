package main

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/topic"
	"repro/internal/workload"
)

// buildLoadgen compiles the command once into a temp dir; the check and
// usage paths end in os.Exit, so they are pinned end-to-end through the
// real binary rather than in-process.
func buildLoadgen(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "loadgen")
	out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput()
	if err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// TestSmallSoakCheckPasses runs a miniature soak end to end in -check
// mode: real sockets, real workload stream, the sim mirror, and the
// assertions — the same shape the CI smoke runs at 50 nodes. The
// verdict is read from the -json report, the artifact CI consumes.
func TestSmallSoakCheckPasses(t *testing.T) {
	if testing.Short() {
		t.Skip("soak needs a few wall-clock seconds")
	}
	bin := buildLoadgen(t)
	repPath := filepath.Join(t.TempDir(), "report.json")
	cmd := exec.Command(bin,
		"-nodes", "8", "-duration", "2s", "-warmup", "500ms",
		"-rate", "10", "-hb", "200ms", "-check", "-band", "0.5",
		"-json", repPath, "-progress", "1s")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("soak check failed: %v\n%s", err, out)
	}
	for _, want := range []string{"real:", "sim:", "CHECK OK", "progress:"} {
		if !strings.Contains(string(out), want) {
			t.Fatalf("output lacks %q:\n%s", want, out)
		}
	}
	var rep struct {
		Published int     `json:"published"`
		Delivered int     `json:"delivered"`
		RealRatio float64 `json:"real_delivery_ratio"`
		Check     *struct {
			Passed bool `json:"passed"`
		} `json:"check"`
	}
	data, err := os.ReadFile(repPath)
	if err != nil {
		t.Fatalf("report not written: %v", err)
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("report not valid JSON: %v\n%s", err, data)
	}
	if rep.Published == 0 || rep.Delivered == 0 || rep.RealRatio <= 0 {
		t.Fatalf("report counters empty: %s", data)
	}
	if rep.Check == nil || !rep.Check.Passed {
		t.Fatalf("report check verdict wrong: %s", data)
	}
}

// TestChurnPartialMeshSoak runs the deployment-shaped soak: a partial
// circulant mesh (multi-hop epidemic repair on real sockets), dynamic
// membership (forward seeds + LearnPeers + suspicion eviction), and a
// crash/recover churn wave from the same generator the sim mirror
// executes. The -check gate adds the membership assertions: peers must
// be genuinely learned off the wire, the wave must crash and recover
// nodes, and a downtime longer than the suspicion window must evict.
func TestChurnPartialMeshSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak needs a few wall-clock seconds")
	}
	bin := buildLoadgen(t)
	repPath := filepath.Join(t.TempDir(), "report.json")
	cmd := exec.Command(bin,
		"-nodes", "10", "-duration", "4s", "-warmup", "500ms",
		"-rate", "10", "-hb", "100ms",
		"-visibility", "0.4", "-membership", "dynamic", "-suspicion", "600ms",
		"-churn", "0.2", "-churn-waves", "1", "-churn-down", "1s",
		"-check", "-band", "0.75", "-json", repPath)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("churn soak check failed: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "CHECK OK") {
		t.Fatalf("output lacks CHECK OK:\n%s", out)
	}
	var rep struct {
		Visibility   float64 `json:"visibility"`
		Membership   string  `json:"membership"`
		Crashes      int     `json:"crashes"`
		Recoveries   int     `json:"recoveries"`
		PeersLearned uint64  `json:"peers_learned"`
		PeersEvicted uint64  `json:"peers_evicted"`
		Delivered    int     `json:"delivered"`
		Check        *struct {
			Passed bool `json:"passed"`
		} `json:"check"`
	}
	data, err := os.ReadFile(repPath)
	if err != nil {
		t.Fatalf("report not written: %v", err)
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("report not valid JSON: %v\n%s", err, data)
	}
	if rep.Membership != "dynamic" || rep.Visibility != 0.4 {
		t.Fatalf("report does not reflect the topology knobs: %s", data)
	}
	if rep.Crashes == 0 || rep.Recoveries == 0 {
		t.Fatalf("churn wave did not execute (crashes %d, recoveries %d): %s",
			rep.Crashes, rep.Recoveries, data)
	}
	if rep.PeersLearned == 0 || rep.PeersEvicted == 0 || rep.Delivered == 0 {
		t.Fatalf("membership counters empty: %s", data)
	}
	if rep.Check == nil || !rep.Check.Passed {
		t.Fatalf("report check verdict wrong: %s", data)
	}
}

// TestMetricsEndpointServesMesh starts a soak with -metrics-addr, reads
// the bound address off stdout, and scrapes /metrics, /healthz and
// /flight while the mesh is running — the acceptance criterion that a
// live loadgen serves valid Prometheus text with the key series.
func TestMetricsEndpointServesMesh(t *testing.T) {
	if testing.Short() {
		t.Skip("soak needs a few wall-clock seconds")
	}
	bin := buildLoadgen(t)
	cmd := exec.Command(bin,
		"-nodes", "4", "-duration", "4s", "-warmup", "300ms",
		"-rate", "10", "-hb", "100ms", "-metrics-addr", "127.0.0.1:0")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = io.Discard
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
	}()

	var base string
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "metrics: http://") {
			base = "http://" + strings.TrimSuffix(strings.TrimPrefix(line, "metrics: http://"), "/metrics (pprof under /debug/pprof/)")
			break
		}
	}
	if base == "" {
		t.Fatalf("no metrics address line on stdout (scan err %v)", sc.Err())
	}
	get := func(path string) string {
		t.Helper()
		var body []byte
		deadline := time.Now().Add(5 * time.Second)
		for {
			resp, err := http.Get(base + path)
			if err == nil {
				body, err = io.ReadAll(resp.Body)
				resp.Body.Close()
				if err == nil && resp.StatusCode == http.StatusOK {
					return string(body)
				}
			}
			if time.Now().After(deadline) {
				t.Fatalf("GET %s: %v", path, err)
			}
			time.Sleep(100 * time.Millisecond)
		}
	}
	if got := get("/healthz"); !strings.Contains(got, "ok") {
		t.Fatalf("/healthz = %q", got)
	}
	// Give the mesh a beat of traffic so counters are nonzero.
	time.Sleep(time.Second)
	metrics := get("/metrics")
	for _, want := range []string{
		"# TYPE repro_loadgen_published_total counter",
		"repro_loadgen_nodes 4",
		`repro_transport_datagrams_sent_total{node="0"}`,
		`repro_pubsub_heartbeats_sent_total{node="3"}`,
		"# TYPE repro_transport_handler_seconds summary",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics lacks %q", want)
		}
	}
	if flight := get("/flight?node=0"); flight == "" {
		t.Error("/flight?node=0 returned an empty timeline")
	}
}

// TestCheckFailureIncludesReport pins the diagnosability contract: a
// failed -check exits 1 and lands the full JSON report (and a flight
// dump) on stderr, so CI logs alone explain the failure.
func TestCheckFailureIncludesReport(t *testing.T) {
	if testing.Short() {
		t.Skip("soak needs a few wall-clock seconds")
	}
	bin := buildLoadgen(t)
	repPath := filepath.Join(t.TempDir(), "report.json")
	cmd := exec.Command(bin,
		"-nodes", "4", "-duration", "1s", "-warmup", "300ms",
		"-rate", "10", "-hb", "100ms",
		"-check", "-min-dps", "1e12", "-json", repPath)
	out, err := cmd.CombinedOutput()
	ee, ok := err.(*exec.ExitError)
	if !ok || ee.ExitCode() != 1 {
		t.Fatalf("err = %v, want exit 1\n%s", err, out)
	}
	for _, want := range []string{
		"CHECK FAILED", "full report", `"passed": false`, `"failure":`,
		"flight recorder, node 0:",
	} {
		if !strings.Contains(string(out), want) {
			t.Fatalf("failure output lacks %q:\n%s", want, out)
		}
	}
	data, err := os.ReadFile(repPath)
	if err != nil {
		t.Fatalf("report not written on failure: %v", err)
	}
	if !strings.Contains(string(data), `"passed": false`) {
		t.Fatalf("report file lacks the failed verdict: %s", data)
	}
}

// TestListPrintsTrafficCatalog pins -list to the registered traffic
// generators the -workload flag accepts.
func TestListPrintsTrafficCatalog(t *testing.T) {
	bin := buildLoadgen(t)
	out, err := exec.Command(bin, "-list").CombinedOutput()
	if err != nil {
		t.Fatalf("-list: %v\n%s", err, out)
	}
	for _, want := range []string{"poisson", "flash-crowd"} {
		if !strings.Contains(string(out), want) {
			t.Fatalf("-list lacks %q:\n%s", want, out)
		}
	}
}

// TestBadWorkloadExits2 pins structural misuse to usage exit 2.
func TestBadWorkloadExits2(t *testing.T) {
	bin := buildLoadgen(t)
	err := exec.Command(bin, "-workload", "no-such-generator").Run()
	ee, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("err = %v, want non-zero exit", err)
	}
	if code := ee.ExitCode(); code != 2 {
		t.Fatalf("bad workload exited %d, want 2", code)
	}
}

// TestRecoveredPublisherKeepsBothScores drives a scripted op list over
// a real 4-node loopback mesh through the shared driver: node 1
// publishes, crashes, recovers with a fresh protocol whose RNG replays
// its first event ID, and publishes again. Both publications must be
// scored, 3 eligible each, against the union of deliveries; a record
// keyed by event ID alone keeps one publication with eligibility 3.
func TestRecoveredPublisherKeepsBothScores(t *testing.T) {
	const n = 4
	tp := topic.MustParse(".soak.events")
	ms, err := newMesh(meshCfg{hb: 50 * time.Millisecond, subs: n, topic: tp}, n, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer ms.closeAll()
	led := netsim.NewLedger(n, []int{0, 1, 2, 3}, false)
	drv := netsim.NewDriver(ms, led, tp, sim.NewStream(1))
	ops := workload.NewExplicit([]workload.Op{
		{At: 300 * time.Millisecond, Kind: workload.Publish, Node: 1, Validity: time.Minute},
		{At: 900 * time.Millisecond, Kind: workload.Crash, Node: 1},
		{At: time.Second, Kind: workload.Recover, Node: 1},
		{At: 1500 * time.Millisecond, Kind: workload.Publish, Node: 1, Validity: time.Minute},
	})
	if err := ms.drive(drv, led, ops); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(50 * time.Millisecond) {
		ms.drain(led)
		if _, inTime, _ := led.Totals(); inTime == 6 {
			break
		}
	}
	out := led.Outcomes()
	if len(out) != 2 {
		t.Fatalf("%d publications scored, want 2: %+v", len(out), out)
	}
	if out[0].ID != out[1].ID {
		t.Fatalf("the recovered publisher issued a fresh ID (%v, %v): no alias to score", out[0].ID, out[1].ID)
	}
	for i, o := range out {
		if o.Eligible != 3 || o.DeliveredInTime != 3 {
			t.Errorf("publication %d: delivered %d/%d, want 3/3", i, o.DeliveredInTime, o.Eligible)
		}
	}
}
