package obs

import (
	"io"
	"net/http"
	"strings"
	"testing"
)

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	return resp.StatusCode, string(body)
}

// TestServeEndpoints boots a real listener and pins every mounted
// endpoint: exposition, JSON snapshot, liveness and pprof.
func TestServeEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.CounterFunc("repro_serve_total", "served", func() uint64 { return 9 })
	srv, err := Serve("127.0.0.1:0", NewMux(reg))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	if code, body := get(t, base+"/healthz"); code != 200 || !strings.Contains(body, "ok") {
		t.Fatalf("/healthz = %d %q", code, body)
	}
	if code, body := get(t, base+"/metrics"); code != 200 ||
		!strings.Contains(body, "repro_serve_total 9") ||
		!strings.Contains(body, "# TYPE repro_serve_total counter") {
		t.Fatalf("/metrics = %d %q", code, body)
	}
	if code, body := get(t, base+"/metrics.json"); code != 200 ||
		!strings.Contains(body, `"repro_serve_total"`) {
		t.Fatalf("/metrics.json = %d %q", code, body)
	}
	if code, body := get(t, base+"/debug/pprof/cmdline"); code != 200 || body == "" {
		t.Fatalf("/debug/pprof/cmdline = %d %q", code, body)
	}
}
