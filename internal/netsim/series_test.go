package netsim

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"
)

// sampleScenario returns the manhattan catalog scenario with the given
// seed — enough traffic to exercise every series column.
func sampleScenario(t *testing.T, seed int64) Scenario {
	t.Helper()
	def, ok := LookupScenario("manhattan")
	if !ok {
		t.Fatal("manhattan scenario not registered")
	}
	return def.Instantiate(seed)
}

// TestSampleInvariance is the core observation contract: enabling
// Scenario.Sample must leave the Result fingerprint byte-identical —
// sampling is read-only, so measurements cannot move.
func TestSampleInvariance(t *testing.T) {
	base := sampleScenario(t, 42)
	ref, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Series != nil {
		t.Fatal("unsampled run populated Series")
	}
	sampled := sampleScenario(t, 42)
	sampled.Sample = 2 * time.Second
	res, err := Run(sampled)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.Fingerprint(), ref.Fingerprint(); got != want {
		t.Fatalf("sampling changed the fingerprint: %s vs %s", got, want)
	}
	s := res.Series
	if s == nil || len(s.Points) == 0 {
		t.Fatal("sampled run has no series")
	}
	// One point per elapsed period plus a final partial window.
	wantPoints := int((base.Measure + sampled.Sample - 1) / sampled.Sample)
	if len(s.Points) != wantPoints {
		t.Fatalf("got %d points, want %d", len(s.Points), wantPoints)
	}
	last := s.Points[len(s.Points)-1]
	if last.At.Duration() != base.Warmup+base.Measure {
		t.Fatalf("last point at %v, want %v", last.At, base.Warmup+base.Measure)
	}
	// The series must describe the run the Result describes.
	if last.Published != len(res.Published) {
		t.Fatalf("final Published %d, want %d", last.Published, len(res.Published))
	}
	if got, want := last.DeliveryRatio, res.Reliability(); got != want {
		t.Fatalf("final DeliveryRatio %v, want Reliability %v", got, want)
	}
	var frames, delivered uint64
	for _, p := range s.Points {
		frames += p.MAC.FramesSent
		delivered += p.Proto.Delivered
		if p.DeliveryRatio < 0 || p.DeliveryRatio > 1 {
			t.Fatalf("DeliveryRatio %v out of [0,1]", p.DeliveryRatio)
		}
		if p.InFlight < 0 || p.Pending <= 0 {
			t.Fatalf("implausible instant gauges: in-flight %d, pending %d", p.InFlight, p.Pending)
		}
	}
	if frames == 0 || delivered == 0 {
		t.Fatalf("series windows sum to zero activity (frames %d, delivered %d)", frames, delivered)
	}
	// Window deltas over the measurement window must sum to the
	// Result's own window counters.
	var wantFrames, wantDelivered uint64
	for _, n := range res.Nodes {
		wantFrames += n.MAC.FramesSent
		wantDelivered += n.Proto.Delivered
	}
	if frames != wantFrames || delivered != wantDelivered {
		t.Fatalf("series deltas sum to (%d frames, %d delivered), Result says (%d, %d)",
			frames, delivered, wantFrames, wantDelivered)
	}
}

// TestSeriesSeedDeterministic pins the series content itself: two runs
// of the same (Scenario, Seed) produce identical points.
func TestSeriesSeedDeterministic(t *testing.T) {
	run := func() *Series {
		sc := sampleScenario(t, 7)
		sc.Sample = 3 * time.Second
		res, err := Run(sc)
		if err != nil {
			t.Fatal(err)
		}
		return res.Series
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("series differ across identical runs:\n%+v\nvs\n%+v", a, b)
	}
}

// TestSeriesEncoders pins the CSV header/row shape and that the JSON
// document parses with the same columns.
func TestSeriesEncoders(t *testing.T) {
	sc := sampleScenario(t, 5)
	sc.Sample = 5 * time.Second
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	var csv strings.Builder
	if err := res.Series.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csv.String()), "\n")
	if len(lines) != len(res.Series.Points)+1 {
		t.Fatalf("CSV has %d lines for %d points", len(lines), len(res.Series.Points))
	}
	// The header is a published format: dumped curves are read by
	// column name, and the proto_/mac_ names match the live metrics.
	const wantHeader = "t_s,published,delivery_ratio,in_flight,pending," +
		"proto_heartbeats_sent,proto_idlists_sent,proto_event_msgs_sent,proto_events_sent," +
		"proto_events_received,proto_delivered,proto_duplicates,proto_parasites," +
		"proto_expired_drops,proto_published,proto_table_evictions,proto_neighbors_gced," +
		"mac_frames_sent,mac_app_bytes_sent,mac_macbytes_sent,mac_frames_received," +
		"mac_frames_lost,mac_frames_faded,mac_queue_drops,mac_defers"
	if lines[0] != wantHeader {
		t.Fatalf("CSV header\n %s\nwant\n %s", lines[0], wantHeader)
	}
	header := strings.Split(lines[0], ",")
	for _, l := range lines[1:] {
		if got := len(strings.Split(l, ",")); got != len(header) {
			t.Fatalf("row width %d, header width %d", got, len(header))
		}
	}

	var js strings.Builder
	if err := res.Series.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		PeriodSeconds float64                  `json:"period_seconds"`
		Points        []map[string]json.Number `json:"points"`
	}
	if err := json.Unmarshal([]byte(js.String()), &doc); err != nil {
		t.Fatalf("series JSON invalid: %v", err)
	}
	if doc.PeriodSeconds != 5 || len(doc.Points) != len(res.Series.Points) {
		t.Fatalf("JSON doc wrong: period %v, %d points", doc.PeriodSeconds, len(doc.Points))
	}
	if _, ok := doc.Points[0]["delivery_ratio"]; !ok {
		t.Fatal("JSON point lacks delivery_ratio")
	}
}

// TestSampleValidation pins the knob's validation.
func TestSampleValidation(t *testing.T) {
	sc := sampleScenario(t, 1)
	sc.Sample = -time.Second
	if _, err := Run(sc); err == nil {
		t.Fatal("negative Sample passed validation")
	}
}
