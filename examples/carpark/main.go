// Carpark reproduces the application sketched in the paper's footnote 1:
// cars leaving a car park publish the freed spot on a topic like
// ".city.parking.lotA"; driving cars subscribe to ".city.parking" and
// learn about free spots near their destination while they move through
// the campus streets.
//
// Unlike the quickstart, this example composes the library pieces
// directly — engine, medium, mobility models and one core.Protocol per
// car — which is the shape a real application embedding the protocol
// would take.
//
// Run with: go run ./examples/carpark
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/geo"
	"repro/internal/mac"
	"repro/internal/mobility"
	"repro/internal/proto"
	"repro/internal/sim"
	"repro/internal/topic"
)

const cars = 12

type car struct {
	id    event.NodeID
	model mobility.Model
	proto *core.Protocol
}

// fleet adapts the cars' mobility models to the MAC medium.
type fleet []*car

func (f fleet) Position(id event.NodeID, at sim.Time) geo.Point {
	return f[id].model.Position(at)
}

// portTransport broadcasts through a MAC port, charging the paper's
// 400-byte event size model.
type portTransport struct{ port *mac.Port }

func (t portTransport) Broadcast(m event.Message) {
	t.port.Broadcast(m, m.WireSize(event.DefaultSizeModel()))
}

func main() {
	eng := sim.New(7)
	campus := mobility.NewCampusGraph()
	parking := topic.MustParse(".city.parking")

	f := make(fleet, cars)
	for i := range f {
		f[i] = &car{id: event.NodeID(i)}
		f[i].model = mobility.NewCity(mobility.CityConfig{
			Graph:     campus,
			StopProb:  0.3,
			StopMin:   2 * time.Second,
			StopMax:   8 * time.Second,
			DestPause: 5 * time.Second,
		}, eng.NewRand())
	}

	// City radio range: 44 m, as in the paper's campus runs.
	medium := mac.New(eng, mac.DefaultConfig(44), f)

	for _, c := range f {
		c := c
		port := medium.Attach(c.id, func(fr mac.Frame) {
			_ = c.proto.HandleMessage(fr.Msg)
		})
		p, err := core.New(core.Config{
			ID:           c.id,
			HBUpperBound: time.Second,
			Speed: func() float64 {
				return c.model.Speed(eng.Now())
			},
			OnDeliver: func(ev event.Event) {
				fmt.Printf("[%7s] car %v learns: %s (topic %v)\n",
					eng.Now(), c.id, ev.Payload, ev.Topic)
			},
			Rand: eng.NewRand(),
		}, proto.EngineScheduler{Eng: eng}, portTransport{port})
		if err != nil {
			log.Fatal(err)
		}
		c.proto = p
		if err := p.Subscribe(parking); err != nil {
			log.Fatal(err)
		}
	}

	// Three cars leave their lots at different times; each freed spot
	// stays relevant for two minutes.
	departures := []struct {
		at   time.Duration
		car  int
		lot  string
		spot string
	}{
		{20 * time.Second, 2, "lotA", "spot 14 free"},
		{45 * time.Second, 7, "lotB", "spot 3 free"},
		{70 * time.Second, 4, "lotA", "spot 9 free"},
	}
	for _, d := range departures {
		d := d
		eng.At(sim.At(d.at), func() {
			lot, err := parking.Child(d.lot)
			if err != nil {
				log.Fatal(err)
			}
			if _, err := f[d.car].proto.Publish(lot, []byte(d.spot), 2*time.Minute); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("[%7s] car %v leaves %s and publishes %q\n",
				eng.Now(), f[d.car].id, d.lot, d.spot)
		})
	}

	eng.RunUntil(sim.Seconds(180))

	fmt.Println("\nafter 3 minutes:")
	for _, c := range f {
		st := c.proto.Stats()
		fmt.Printf("car %-3v knows %d spot(s); sent %d heartbeats, %d event messages\n",
			c.id, st.Delivered, st.HeartbeatsSent, st.EventMsgsSent)
	}
}
