package radio

import "math"

// The paper's QualNet setup uses a *statistical* propagation model (with
// a -111 dBm limit) on top of the two-ray path loss: reception near the
// nominal range boundary is probabilistic, not a hard disc. Shadowing
// reproduces that with the standard log-normal shadowing model: received
// power at distance d is ReceivedPowerDBm(d) plus a zero-mean Gaussian
// with deviation SigmaDB.

// limitDBm is QualNet's propagation limit (-111 dBm in the paper):
// signals whose mean received power falls below it are discarded
// regardless of the shadowing draw.
const limitDBm = -111.0

// Shadowing is a log-normal shadowing reception model.
type Shadowing struct {
	// SensitivityDBm is the receiver sensitivity threshold.
	SensitivityDBm float64
	// SigmaDB is the shadowing deviation (typical outdoor: 4-8 dB).
	// Zero degenerates to the deterministic disc.
	SigmaDB float64
}

// ReceiveProb returns the probability that a frame transmitted from
// distance d meters is received: P[Pr(d) + N(0, sigma) >= sensitivity].
func (s Shadowing) ReceiveProb(d float64) float64 {
	pr := ReceivedPowerDBm(d)
	if pr < limitDBm {
		return 0
	}
	if s.SigmaDB <= 0 {
		if pr >= s.SensitivityDBm {
			return 1
		}
		return 0
	}
	// P[X >= sens-pr] for X ~ N(0, sigma) = Q((sens-pr)/sigma).
	z := (s.SensitivityDBm - pr) / s.SigmaDB
	return 0.5 * math.Erfc(z/math.Sqrt2)
}

// MaxRange returns the distance beyond which reception probability drops
// below eps — a pruning radius for simulators so they can skip hopeless
// receivers.
func (s Shadowing) MaxRange(eps float64) float64 {
	if eps <= 0 {
		eps = 1e-4
	}
	lo, hi := 1e-3, 100_000.0
	if s.ReceiveProb(hi) >= eps {
		return hi
	}
	if s.ReceiveProb(lo) < eps {
		return 0
	}
	for i := 0; i < 100; i++ {
		mid := (lo + hi) / 2
		if s.ReceiveProb(mid) >= eps {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi
}

// tableN is the number of equal distance intervals a ShadowTable spans.
const tableN = 4096

// tableSlack is the margin, far above the float error of evaluating
// ReceiveProb, by which u must clear an interval's bracket before the
// table alone decides.
const tableSlack = 1e-9

// ShadowTable answers Receives from ReceiveProb tabulated over [0, rng].
// It is read-only once built, so runs on different goroutines may share
// one.
type ShadowTable struct {
	s    Shadowing
	step float64
	p    [tableN + 1]float64 // p[i] = s.ReceiveProb(i*step)
}

// Tabulate returns s's reception verdict tabulated at tableN+1 evenly
// spaced distances over [0, rng].
func (s Shadowing) Tabulate(rng float64) *ShadowTable {
	t := &ShadowTable{s: s, step: rng / tableN}
	for i := range t.p {
		t.p[i] = s.ReceiveProb(float64(i) * t.step)
	}
	return t
}

// Receives reports u < s.ReceiveProb(d), exactly. ReceiveProb does not
// increase with d (path loss grows, erfc falls, the limit only drops it
// to 0), so for d in [i*step, (i+1)*step] it lies in [p[i+1], p[i]].
// ReceiveProb is evaluated only when u falls within tableSlack of that
// bracket, when d is off the table, or when rounding d/step named an
// interval that does not hold d.
func (t *ShadowTable) Receives(d, u float64) bool {
	if x := d / t.step; x >= 0 && x < tableN {
		i := int(x)
		if float64(i)*t.step <= d && d <= float64(i+1)*t.step {
			if u < t.p[i+1]-tableSlack {
				return true
			}
			if u >= t.p[i]+tableSlack {
				return false
			}
		}
	}
	return u < t.s.ReceiveProb(d)
}
