// Inprocess runs the frugal protocol on REAL time, off the simulator:
// three "devices" live on goroutines, connected by an in-process
// broadcast bus, each a goroutine-safe pubsub.Node on the wall clock.
// This is the deployment shape for a real transport (UDP broadcast, BLE
// advertising): implement pubsub.Transport with your radio, feed what it
// receives to Node.HandleMessage, and the protocol code is unchanged.
//
// Run with: go run ./examples/inprocess
package main

import (
	"fmt"
	"log"
	"sync"
	"time"

	"repro/pubsub"
)

// bus is an in-process lossless broadcast medium. A real deployment
// would send the marshalled message as a UDP broadcast datagram.
type bus struct {
	mu    sync.RWMutex
	peers map[pubsub.NodeID]*pubsub.Node
}

func (b *bus) attach(id pubsub.NodeID, n *pubsub.Node) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.peers == nil {
		b.peers = make(map[pubsub.NodeID]*pubsub.Node)
	}
	b.peers[id] = n
}

// transport broadcasts on behalf of one device.
type transport struct {
	b    *bus
	from pubsub.NodeID
}

func (t transport) Broadcast(m pubsub.Message) {
	// Round-trip through the real wire encoding to prove it works.
	decoded, err := pubsub.Unmarshal(pubsub.Marshal(m))
	if err != nil {
		log.Fatalf("wire format round-trip failed: %v", err)
	}
	t.b.mu.RLock()
	defer t.b.mu.RUnlock()
	for id, n := range t.b.peers {
		if id == t.from {
			continue
		}
		n := n
		go func() { _ = n.HandleMessage(decoded) }()
	}
}

func main() {
	start := time.Now()
	b := &bus{}
	news := pubsub.MustParseTopic(".campus.news")

	var wg sync.WaitGroup
	devices := make([]*pubsub.Node, 3)
	for i := range devices {
		id := pubsub.NodeID(i)
		n, err := pubsub.NewNode(pubsub.Config{
			ID: id,
			// Fast heartbeats so the demo converges in ~2 wall seconds.
			HBDelay:      150 * time.Millisecond,
			HBUpperBound: 150 * time.Millisecond,
			OnDeliver: func(ev pubsub.Event) {
				fmt.Printf("%6s device %v delivered: %s\n",
					time.Since(start).Round(time.Millisecond), id, ev.Payload)
				wg.Done()
			},
		}, transport{b: b, from: id})
		if err != nil {
			log.Fatal(err)
		}
		defer n.Close()
		devices[i] = n
		b.attach(id, n)
		if err := n.Subscribe(news); err != nil {
			log.Fatal(err)
		}
	}

	// Let the devices discover each other over a few heartbeats.
	time.Sleep(500 * time.Millisecond)
	for i, d := range devices {
		fmt.Printf("device %d neighbors: %v\n", i, d.Neighbors())
	}

	// Three deliveries expected: the publisher self-delivers (it is
	// subscribed) plus the two remote devices.
	wg.Add(3)
	fmt.Printf("%6s device 0 publishing\n", time.Since(start).Round(time.Millisecond))
	if _, err := devices[0].Publish(news, []byte("lecture moved to room BC410"), time.Minute); err != nil {
		log.Fatal(err)
	}

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
		fmt.Println("all devices received the event over the real-time transport")
	case <-time.After(5 * time.Second):
		log.Fatal("timed out waiting for deliveries")
	}
}
