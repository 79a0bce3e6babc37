package workload

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/topic"
)

// TopicModel selects the topic of each generated publication over the
// scenario's topic tree. The zero value publishes everything on the
// scenario's event topic itself.
type TopicModel struct {
	// Spread > 1 publishes across Spread sibling subtopics under the
	// event topic (".app.news.0" … ".app.news.<Spread-1>"); subscribers
	// of the event topic cover the whole subtree, so deliveries still
	// count. 0 or 1 publishes on the event topic itself.
	Spread int
	// ZipfS > 1 skews topic popularity with a Zipf(s) law (a popular
	// head and a long tail, per the usual pub/sub workload observation);
	// 0 draws topics uniformly. Ignored when Spread <= 1.
	ZipfS float64
}

// Validate reports configuration errors.
func (m TopicModel) Validate() error {
	if m.Spread < 0 {
		return fmt.Errorf("workload: negative topic Spread %d", m.Spread)
	}
	if m.ZipfS != 0 && m.ZipfS <= 1 {
		return fmt.Errorf("workload: ZipfS %v must be 0 (uniform) or > 1", m.ZipfS)
	}
	return nil
}

// topicPicker draws per-publication topics for a TopicModel.
type topicPicker struct {
	topics []topic.Topic // nil: always the zero topic (= event topic)
	zipf   *rand.Zipf
	rng    *rand.Rand
}

// child names the i-th subtopic under base.
func child(base topic.Topic, i int) topic.Topic {
	if base.IsZero() || base.IsRoot() {
		return topic.MustParse(fmt.Sprintf(".%d", i))
	}
	return topic.MustParse(fmt.Sprintf("%s.%d", base, i))
}

func newTopicPicker(m TopicModel, env Env) *topicPicker {
	if m.Spread <= 1 {
		return &topicPicker{}
	}
	ts := make([]topic.Topic, m.Spread)
	for i := range ts {
		ts[i] = child(env.EventTopic, i)
	}
	p := &topicPicker{topics: ts, rng: env.Rand}
	if m.ZipfS > 1 {
		p.zipf = rand.NewZipf(env.Rand, m.ZipfS, 1, uint64(m.Spread-1))
	}
	return p
}

func (p *topicPicker) pick() topic.Topic {
	if p.topics == nil {
		return topic.Topic{}
	}
	if p.zipf != nil {
		return p.topics[p.zipf.Uint64()]
	}
	return p.topics[p.rng.Intn(len(p.topics))]
}

// rateFn is an instantaneous arrival intensity in events/second.
type rateFn func(t time.Duration) float64

// thinning samples a nonhomogeneous Poisson process on [t, end) by
// Lewis-Shedler thinning against the constant envelope max: candidate
// arrivals come from a homogeneous process at rate max and are accepted
// with probability rate(t)/max. Arrival times are strictly
// non-decreasing and the walk keeps O(1) state.
type thinning struct {
	rng  *rand.Rand
	rate rateFn
	max  float64
	t    time.Duration
	end  time.Duration
}

func (th *thinning) next() (time.Duration, bool) {
	if th.max <= 0 {
		return 0, false
	}
	for {
		gap := time.Duration(th.rng.ExpFloat64() / th.max * float64(time.Second))
		th.t += gap
		if th.t >= th.end {
			return 0, false
		}
		if r := th.rate(th.t); r >= th.max || th.rng.Float64()*th.max < r {
			return th.t, true
		}
	}
}

// trafficGen maps an arrival process to Publish ops from a random
// subscriber (-1), with topics drawn from a TopicModel.
type trafficGen struct {
	arrive   func() (time.Duration, bool)
	topics   *topicPicker
	validity time.Duration
}

func (g *trafficGen) Next() (Op, bool) {
	t, ok := g.arrive()
	if !ok {
		return Op{}, false
	}
	return Op{At: t, Kind: Publish, Node: -1, Topic: g.topics.pick(), Validity: g.validity}, true
}

func newThinnedTraffic(env Env, rate rateFn, max float64, topics TopicModel, validity time.Duration) Generator {
	th := &thinning{rng: env.Rand, rate: rate, max: max, t: env.Start(), end: env.End()}
	return &trafficGen{arrive: th.next, topics: newTopicPicker(topics, env), validity: validity}
}

func defDuration(v, def time.Duration) time.Duration {
	if v == 0 {
		return def
	}
	return v
}

func defFloat(v, def float64) float64 {
	if v == 0 {
		return def
	}
	return v
}

// defaultValidity is the generated events' default validity period.
const defaultValidity = 60 * time.Second

// PoissonParams tunes the "poisson" generator: memoryless arrivals at a
// constant mean rate, the classic open-loop traffic model.
type PoissonParams struct {
	// Rate is the mean arrival rate in events/second (default 0.2).
	Rate float64
	// Validity is each event's validity period (default 60 s).
	Validity time.Duration
	// Topics selects topic popularity over the topic tree.
	Topics TopicModel
}

// Validate implements Params.
func (p PoissonParams) Validate() error {
	if p.Rate < 0 {
		return fmt.Errorf("workload: negative poisson Rate %v", p.Rate)
	}
	if p.Validity < 0 {
		return fmt.Errorf("workload: negative Validity %v", p.Validity)
	}
	return p.Topics.Validate()
}

// PeriodicParams is the "periodic" generator's params: fixed-period
// arrivals with per-arrival forward jitter, the sensor-beacon traffic
// model. It has no settings; the generator runs at the constants below
// with the default validity and topic model.
type PeriodicParams struct{}

// Validate implements Params.
func (PeriodicParams) Validate() error { return nil }

// The periodic generator's base interval, and the maximum forward shift
// added to each arrival, uniform in [0, periodicJitter]; the jitter
// stays below the period, so the stream stays monotone.
const (
	periodicPeriod = 5 * time.Second
	periodicJitter = periodicPeriod / 10
)

// FlashCrowdParams tunes the "flash-crowd" generator: a low background
// rate with one high-rate burst window — the stadium-event traffic
// shape studied by the VANET cooperative-monitoring literature.
type FlashCrowdParams struct {
	// BaseRate is the background rate in events/second (default 0.05).
	BaseRate float64
	// PeakRate is the in-burst rate in events/second (default 2).
	PeakRate float64
	// BurstStart is the burst's offset into the measurement window
	// (default: one third in).
	BurstStart time.Duration
	// BurstLen is the burst duration (default: one sixth of the
	// window).
	BurstLen time.Duration
	// Validity is each event's validity period (default 60 s).
	Validity time.Duration
	// Topics selects topic popularity over the topic tree.
	Topics TopicModel
}

// Validate implements Params.
func (p FlashCrowdParams) Validate() error {
	if p.BaseRate < 0 || p.PeakRate < 0 {
		return fmt.Errorf("workload: negative flash-crowd rate (base %v, peak %v)", p.BaseRate, p.PeakRate)
	}
	if p.BurstStart < 0 || p.BurstLen < 0 {
		return fmt.Errorf("workload: negative burst window (start %v, len %v)", p.BurstStart, p.BurstLen)
	}
	if p.Validity < 0 {
		return fmt.Errorf("workload: negative Validity %v", p.Validity)
	}
	return p.Topics.Validate()
}

// DiurnalParams tunes the "diurnal" generator: a smooth rate ramp
// between a quiet floor and a rush-hour peak, following one cosine
// cycle — the compressed day/night (or commute) traffic shape.
type DiurnalParams struct {
	// MinRate is the quiet-hours rate in events/second (default 0.02).
	MinRate float64
	// MaxRate is the peak rate in events/second (default 0.5).
	MaxRate float64
	// Validity is each event's validity period (default 60 s).
	Validity time.Duration
	// Topics selects topic popularity over the topic tree.
	Topics TopicModel
}

// Validate implements Params.
func (p DiurnalParams) Validate() error {
	if p.MinRate < 0 || p.MaxRate < 0 {
		return fmt.Errorf("workload: negative diurnal rate (min %v, max %v)", p.MinRate, p.MaxRate)
	}
	if defFloat(p.MinRate, 0.02) > defFloat(p.MaxRate, 0.5) {
		return fmt.Errorf("workload: diurnal MinRate %v exceeds MaxRate %v", p.MinRate, p.MaxRate)
	}
	if p.Validity < 0 {
		return fmt.Errorf("workload: negative Validity %v", p.Validity)
	}
	return p.Topics.Validate()
}

// periodicGen is the deterministic-period arrival process with forward
// jitter.
type periodicGen struct {
	rng  *rand.Rand
	base time.Duration
	end  time.Duration
}

func (g *periodicGen) next() (time.Duration, bool) {
	for g.base < g.end {
		t := g.base
		g.base += periodicPeriod
		t += time.Duration(g.rng.Int63n(int64(periodicJitter) + 1))
		if t < g.end {
			return t, true
		}
		// Jitter pushed this arrival past the horizon; the next base
		// may still fit, but drawing continues so the stream stays a
		// pure function of the params.
	}
	return 0, false
}

func init() {
	RegisterWorkload(Definition{
		Name:        "poisson",
		Description: "memoryless arrivals at a constant mean rate (open-loop traffic)",
		Class:       ClassTraffic,
		Params:      PoissonParams{},
		New: func(p Params, env Env) (Generator, error) {
			pp := p.(PoissonParams)
			rate := defFloat(pp.Rate, 0.2)
			return newThinnedTraffic(env,
				func(time.Duration) float64 { return rate }, rate,
				pp.Topics, defDuration(pp.Validity, defaultValidity)), nil
		},
	})
	RegisterWorkload(Definition{
		Name:        "periodic",
		Description: "fixed-period arrivals with forward jitter (sensor-beacon traffic)",
		Class:       ClassTraffic,
		Params:      PeriodicParams{},
		New: func(_ Params, env Env) (Generator, error) {
			g := &periodicGen{rng: env.Rand, base: env.Start(), end: env.End()}
			return &trafficGen{arrive: g.next, topics: newTopicPicker(TopicModel{}, env),
				validity: defaultValidity}, nil
		},
	})
	RegisterWorkload(Definition{
		Name:        "flash-crowd",
		Description: "low background rate with one high-rate burst window (stadium-event traffic)",
		Class:       ClassTraffic,
		Params:      FlashCrowdParams{},
		New: func(p Params, env Env) (Generator, error) {
			pp := p.(FlashCrowdParams)
			base := defFloat(pp.BaseRate, 0.05)
			peak := defFloat(pp.PeakRate, 2)
			from := env.Start() + defDuration(pp.BurstStart, env.Measure/3)
			until := from + defDuration(pp.BurstLen, env.Measure/6)
			rate := func(t time.Duration) float64 {
				if t >= from && t < until {
					return peak
				}
				return base
			}
			return newThinnedTraffic(env, rate, math.Max(base, peak),
				pp.Topics, defDuration(pp.Validity, defaultValidity)), nil
		},
	})
	RegisterWorkload(Definition{
		Name:        "diurnal",
		Description: "cosine rate ramp between a quiet floor and a rush-hour peak (commute traffic)",
		Class:       ClassTraffic,
		Params:      DiurnalParams{},
		New: func(p Params, env Env) (Generator, error) {
			pp := p.(DiurnalParams)
			minRate := defFloat(pp.MinRate, 0.02)
			maxRate := defFloat(pp.MaxRate, 0.5)
			if minRate > maxRate {
				return nil, fmt.Errorf("workload: diurnal MinRate %v exceeds MaxRate %v", minRate, maxRate)
			}
			// One quiet-rush-quiet arc per measurement window.
			cycle := env.Measure
			if cycle <= 0 {
				return nil, fmt.Errorf("workload: diurnal cycle %v not positive", cycle)
			}
			start := env.Start()
			rate := func(t time.Duration) float64 {
				phase := 2 * math.Pi * float64(t-start) / float64(cycle)
				return minRate + (maxRate-minRate)*(1-math.Cos(phase))/2
			}
			return newThinnedTraffic(env, rate, maxRate,
				pp.Topics, defDuration(pp.Validity, defaultValidity)), nil
		},
	})
}
