package radio

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

func defaultShadowing(sigma float64) Shadowing {
	return Shadowing{SensitivityDBm: -89, SigmaDB: sigma}
}

func TestShadowingDegeneratesToDisc(t *testing.T) {
	s := defaultShadowing(0)
	r, err := rangeFor(s.SensitivityDBm)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.ReceiveProb(r * 0.9); got != 1 {
		t.Fatalf("inside disc prob = %v, want 1", got)
	}
	if got := s.ReceiveProb(r * 1.1); got != 0 {
		t.Fatalf("outside disc prob = %v, want 0", got)
	}
}

func TestShadowingHalfAtNominalRange(t *testing.T) {
	// At the distance where mean received power equals the sensitivity,
	// reception probability is exactly 1/2 for any sigma.
	s := defaultShadowing(6)
	r, err := rangeFor(s.SensitivityDBm)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.ReceiveProb(r); math.Abs(got-0.5) > 0.01 {
		t.Fatalf("prob at nominal range = %v, want ~0.5", got)
	}
}

func TestShadowingMonotone(t *testing.T) {
	s := defaultShadowing(6)
	prev := 1.1
	for d := 10.0; d < 5000; d *= 1.4 {
		p := s.ReceiveProb(d)
		if p > prev+1e-12 {
			t.Fatalf("probability increased with distance at %vm", d)
		}
		if p < 0 || p > 1 {
			t.Fatalf("probability %v out of [0,1]", p)
		}
		prev = p
	}
}

func TestShadowingSigmaWidensTail(t *testing.T) {
	// More shadowing means more reception probability far beyond the
	// nominal range.
	narrow, wide := defaultShadowing(2), defaultShadowing(8)
	r, _ := rangeFor(narrow.SensitivityDBm)
	d := r * 1.3
	if wide.ReceiveProb(d) <= narrow.ReceiveProb(d) {
		t.Fatalf("sigma=8 tail (%v) should exceed sigma=2 tail (%v) at %vm",
			wide.ReceiveProb(d), narrow.ReceiveProb(d), d)
	}
}

func TestShadowingLimitFloor(t *testing.T) {
	s := defaultShadowing(8)
	// Find a distance where mean power is below the -111 dBm limit: the
	// probability must be exactly 0 no matter the sigma.
	d := 50000.0
	if ReceivedPowerDBm(d) >= limitDBm {
		t.Skip("test distance not beyond the limit")
	}
	if got := s.ReceiveProb(d); got != 0 {
		t.Fatalf("beyond the propagation limit prob = %v, want 0", got)
	}
}

func TestShadowingMaxRange(t *testing.T) {
	s := defaultShadowing(6)
	r := s.MaxRange(1e-3)
	if r <= 0 {
		t.Fatal("MaxRange returned nothing")
	}
	if p := s.ReceiveProb(r * 1.05); p >= 1e-3 {
		t.Fatalf("prob just beyond MaxRange = %v, want < 1e-3", p)
	}
	if p := s.ReceiveProb(r * 0.8); p < 1e-3 {
		t.Fatalf("prob well inside MaxRange = %v, want >= 1e-3", p)
	}
	nominal, _ := rangeFor(s.SensitivityDBm)
	if r <= nominal {
		t.Fatalf("pruning radius %v should exceed nominal range %v", r, nominal)
	}
}

// channelCase is one shadowing model under test with its table.
type channelCase struct {
	name string
	s    Shadowing
	rng  float64
	tab  *ShadowTable
}

// channelCases covers sigma 0, 4 and 8, each tabulated over its pruning
// radius.
func channelCases() []channelCase {
	var cs []channelCase
	for _, sigma := range []float64{0, 4, 8} {
		s := defaultShadowing(sigma)
		rng := s.MaxRange(1e-3)
		cs = append(cs, channelCase{
			name: fmt.Sprintf("sigma=%v", sigma),
			s:    s, rng: rng, tab: s.Tabulate(rng),
		})
	}
	return cs
}

// checkVerdict fails t unless the table's verdict is u < ReceiveProb(d).
func checkVerdict(t *testing.T, c channelCase, d, u float64) {
	t.Helper()
	if got, want := c.tab.Receives(d, u), u < c.s.ReceiveProb(d); got != want {
		t.Fatalf("%s: Receives(%v, %v) = %v, want %v (ReceiveProb %v)", c.name, d, u, got, want, c.s.ReceiveProb(d))
	}
}

// TestShadowTableMatchesReceiveProb requires the tabulated verdict to
// equal u < ReceiveProb(d) for uniform distances, the table's interval
// edges and their neighbours, the interval holding the limit distance
// and the range itself, each with a uniform u, u = ReceiveProb(d) and
// the floats either side of it.
func TestShadowTableMatchesReceiveProb(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, c := range channelCases() {
		step := c.rng / tableN
		var ds []float64
		for i := 0; i < 20000; i++ {
			ds = append(ds, rng.Float64()*c.rng)
		}
		for i := 0; i <= tableN; i++ {
			e := float64(i) * step
			ds = append(ds, e, math.Nextafter(e, 0), math.Nextafter(e, math.Inf(1)))
		}
		ld, err := rangeFor(limitDBm)
		if err != nil {
			t.Fatal(err)
		}
		lo := math.Floor(ld/step) * step
		for i := 0; i <= 200; i++ {
			ds = append(ds, lo+step*float64(i)/200)
		}
		ds = append(ds, ld, math.Nextafter(ld, 0), math.Nextafter(ld, math.Inf(1)))
		ds = append(ds, 0, c.rng, math.Nextafter(c.rng, 0), math.Nextafter(c.rng, math.Inf(1)))
		for _, d := range ds {
			p := c.s.ReceiveProb(d)
			for _, u := range []float64{rng.Float64(), p, math.Nextafter(p, 0), math.Nextafter(p, 2)} {
				checkVerdict(t, c, d, u)
			}
		}
	}
}

// FuzzShadowTableMatchesReceiveProb is the differential on arbitrary
// (d, u), off the table and non-finite included.
func FuzzShadowTableMatchesReceiveProb(f *testing.F) {
	cs := channelCases()
	f.Add(uint8(2), 300.0, 0.5)
	f.Add(uint8(5), 1000.0, 0.001)
	f.Add(uint8(0), -1.0, 0.0)
	f.Fuzz(func(t *testing.T, which uint8, d, u float64) {
		checkVerdict(t, cs[int(which)%len(cs)], d, u)
	})
}

// TestShadowTableJumpAtGridPoint places sigma 0's disc edge on a table
// point: the last distance that receives lies a float below it, and
// dividing by the step rounds it into the interval after the edge. The
// verdict must still be ReceiveProb's, which a bracket read by the
// rounded index alone gets wrong.
func TestShadowTableJumpAtGridPoint(t *testing.T) {
	s := defaultShadowing(0)
	in, err := rangeFor(s.SensitivityDBm)
	if err != nil {
		t.Fatal(err)
	}
	out := math.Nextafter(in, math.Inf(1))
	if s.ReceiveProb(in) != 1 || s.ReceiveProb(out) != 0 {
		t.Fatalf("no disc edge between %v and %v", in, out)
	}
	for k := 1; k < tableN; k++ {
		rng := out * tableN / float64(k)
		for j := 0; j < 16; j, rng = j+1, math.Nextafter(rng, 0) {
			step := rng / tableN
			if float64(k)*step != out || int(in/step) != k {
				continue
			}
			tab := s.Tabulate(rng)
			if !tab.Receives(in, 0.5) {
				t.Fatalf("Receives(%v, 0.5) = false over range %v, want true", in, rng)
			}
			return
		}
	}
	t.Fatal("no range puts the disc edge on a table point")
}
