package pubsub_test

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/pubsub"
)

// bus is an in-process lossless broadcast medium standing in for a
// radio: every message crosses the real wire encoding, as a UDP
// broadcast datagram would.
type bus struct {
	mu    sync.Mutex
	peers map[pubsub.NodeID]*pubsub.Node
}

// busPort broadcasts on behalf of one device.
type busPort struct {
	b    *bus
	from pubsub.NodeID
}

func (p busPort) Broadcast(m pubsub.Message) {
	decoded, err := pubsub.Unmarshal(pubsub.Marshal(m))
	if err != nil {
		panic(err)
	}
	p.b.mu.Lock()
	defer p.b.mu.Unlock()
	for id, n := range p.b.peers {
		if id != p.from {
			go n.HandleMessage(decoded)
		}
	}
}

// collect waits for n delivery lines (10 s at most) and prints them
// sorted, so the output does not depend on which goroutine delivered
// first.
func collect(got <-chan string, n int) {
	lines := make([]string, 0, n)
	timeout := time.After(10 * time.Second)
	for len(lines) < n {
		select {
		case l := <-got:
			lines = append(lines, l)
		case <-timeout:
			fmt.Printf("timed out after %d of %d deliveries\n", len(lines), n)
			return
		}
	}
	slices.Sort(lines)
	for _, l := range lines {
		fmt.Println(l)
	}
}

// Three devices on the wall clock share an in-process bus. Any
// transport works the same way: implement Transport with the radio and
// feed what it receives to Node.HandleMessage.
func ExampleNewNode() {
	news := pubsub.MustParseTopic(".campus.news")
	b := &bus{peers: make(map[pubsub.NodeID]*pubsub.Node)}
	got := make(chan string, 3)
	var devices []*pubsub.Node
	for i := range 3 {
		id := pubsub.NodeID(i)
		n, err := pubsub.NewNode(pubsub.Config{
			ID:           id,
			HBDelay:      150 * time.Millisecond,
			HBUpperBound: 150 * time.Millisecond,
			OnDeliver:    func(ev pubsub.Event) { got <- fmt.Sprintf("%v delivered %q", id, ev.Payload) },
		}, busPort{b: b, from: id})
		if err != nil {
			fmt.Println(err)
			return
		}
		defer n.Close()
		b.mu.Lock()
		b.peers[id] = n
		b.mu.Unlock()
		if err := n.Subscribe(news); err != nil {
			fmt.Println(err)
			return
		}
		devices = append(devices, n)
	}
	// The publisher delivers its own event too: it is subscribed.
	if _, err := devices[0].Publish(news, []byte("lecture moved to room BC410"), time.Minute); err != nil {
		fmt.Println(err)
		return
	}
	collect(got, 3)
	// Output:
	// p0 delivered "lecture moved to room BC410"
	// p1 delivered "lecture moved to room BC410"
	// p2 delivered "lecture moved to room BC410"
}

// Five nodes on loopback UDP sockets. Every node gets the full roster;
// each filters its own address out.
func ExampleNewUDPNode() {
	alerts := pubsub.MustParseTopic(".mesh.alerts")
	got := make(chan string, 5)
	var nodes []*pubsub.Node
	for i := range 5 {
		id := pubsub.NodeID(i)
		n, err := pubsub.NewUDPNode(pubsub.Config{
			ID:           id,
			HBDelay:      200 * time.Millisecond,
			HBUpperBound: 200 * time.Millisecond,
			OnDeliver:    func(ev pubsub.Event) { got <- fmt.Sprintf("%v delivered %q", id, ev.Payload) },
		}, "127.0.0.1:0", nil)
		if err != nil {
			fmt.Println(err)
			return
		}
		defer n.Close()
		nodes = append(nodes, n)
	}
	for _, a := range nodes {
		for _, b := range nodes {
			if err := a.AddPeer(b.LocalAddr()); err != nil {
				fmt.Println(err)
				return
			}
		}
		if err := a.Subscribe(alerts); err != nil {
			fmt.Println(err)
			return
		}
	}
	if _, err := nodes[2].Publish(alerts, []byte("perimeter breach, dock 4"), time.Minute); err != nil {
		fmt.Println(err)
		return
	}
	collect(got, 5)
	// Output:
	// p0 delivered "perimeter breach, dock 4"
	// p1 delivered "perimeter breach, dock 4"
	// p2 delivered "perimeter breach, dock 4"
	// p3 delivered "perimeter breach, dock 4"
	// p4 delivered "perimeter breach, dock 4"
}
