package radio

import (
	"errors"
	"math"
	"testing"
)

func TestFreeSpaceKnownValue(t *testing.T) {
	// At 2.4 GHz and 100 m, FSPL is ~80.1 dB (textbook value).
	got := FreeSpacePathLossDB(100, 2.4e9)
	if math.Abs(got-80.05) > 0.1 {
		t.Fatalf("FSPL(100m, 2.4GHz) = %v, want ~80.05", got)
	}
}

func TestTwoRaySlope(t *testing.T) {
	// Two-ray loss grows by 40 dB per decade of distance.
	l1 := TwoRayPathLossDB(100, 1.5, 1.5)
	l2 := TwoRayPathLossDB(1000, 1.5, 1.5)
	if math.Abs((l2-l1)-40) > 1e-9 {
		t.Fatalf("two-ray slope = %v dB/decade, want 40", l2-l1)
	}
}

func TestCrossoverDistance(t *testing.T) {
	d := CrossoverDistance(1.5, 1.5, wavelength)
	// 4*pi*2.25/0.125 ~ 226 m for 2.4 GHz, 1.5 m antennas.
	if d < 200 || d > 250 {
		t.Fatalf("crossover = %v, want ~226 m", d)
	}
}

func TestReceivedPowerMonotone(t *testing.T) {
	prev := math.Inf(1)
	for d := 1.0; d < 5000; d *= 1.3 {
		got := ReceivedPowerDBm(d)
		if got > prev {
			t.Fatalf("received power increased with distance at %vm", d)
		}
		prev = got
	}
}

func TestReceivedPowerContinuousAtCrossover(t *testing.T) {
	cross := CrossoverDistance(antennaHeightM, antennaHeightM, wavelength)
	below := ReceivedPowerDBm(cross * 0.999)
	above := ReceivedPowerDBm(cross * 1.001)
	// The hybrid model is continuous at the crossover by construction.
	if math.Abs(below-above) > 0.5 {
		t.Fatalf("discontinuity at crossover: %v vs %v", below, above)
	}
}

// errNoRange is returned when the sensitivity is not reachable at any
// distance (e.g. sensitivity above transmit power at 1 mm).
var errNoRange = errors.New("radio: sensitivity unreachable")

// rangeFor returns the maximum distance in meters at which the received
// power still meets sensitivityDBm, by bisection over the monotone
// received-power curve: the first-principles radius the tests hold the
// paper's published radii and the shadowing model against.
func rangeFor(sensitivityDBm float64) (float64, error) {
	lo, hi := 1e-3, 100_000.0
	if ReceivedPowerDBm(lo) < sensitivityDBm {
		return 0, errNoRange
	}
	if ReceivedPowerDBm(hi) >= sensitivityDBm {
		return hi, nil
	}
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		if ReceivedPowerDBm(mid) >= sensitivityDBm {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, nil
}

func TestRangeForSensitivities(t *testing.T) {
	// The solver must invert ReceivedPowerDBm: at the returned range the
	// predicted power equals the sensitivity.
	for _, sens := range []float64{-93, -89, -87, -83, -65} {
		r, err := rangeFor(sens)
		if err != nil {
			t.Fatalf("RangeFor(%v): %v", sens, err)
		}
		if got := ReceivedPowerDBm(r); math.Abs(got-sens) > 0.01 {
			t.Fatalf("power at range %vm = %v, want %v", r, got, sens)
		}
	}
}

func TestRangeOrdering(t *testing.T) {
	// Lower (more negative) sensitivity must give larger range, mirroring
	// the paper's per-rate ordering 442 > 339 > 321 > 273 m.
	r93, _ := rangeFor(-93)
	r89, _ := rangeFor(-89)
	r83, _ := rangeFor(-83)
	r65, _ := rangeFor(-65)
	if !(r93 > r89 && r89 > r83 && r83 > r65) {
		t.Fatalf("range ordering violated: %v %v %v %v", r93, r89, r83, r65)
	}
	// Same order of magnitude as the paper's published radii.
	if r93 < 200 || r93 > 2000 {
		t.Fatalf("range at -93 dBm = %vm, implausible", r93)
	}
	if r65 < 10 || r65 > 200 {
		t.Fatalf("range at -65 dBm = %vm, implausible", r65)
	}
}

func TestRangeForUnreachable(t *testing.T) {
	if _, err := rangeFor(1000); !errors.Is(err, errNoRange) {
		t.Fatal("expected errNoRange for absurd sensitivity")
	}
}

func TestPaperRangeConstants(t *testing.T) {
	if !(PaperRange1Mbps > PaperRange2Mbps &&
		PaperRange2Mbps > PaperRange6Mbps &&
		PaperRange6Mbps > PaperRange11Mbps &&
		PaperRange11Mbps > PaperRangeCity) {
		t.Fatal("paper range constants out of order")
	}
}

func TestReceivedPowerZeroDistance(t *testing.T) {
	got := ReceivedPowerDBm(0)
	if math.IsInf(got, 0) || math.IsNaN(got) {
		t.Fatal("zero distance must not produce Inf/NaN")
	}
}
