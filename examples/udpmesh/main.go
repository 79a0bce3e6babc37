// Udpmesh runs a five-node frugal pub/sub mesh over REAL UDP sockets on
// the loopback interface: each node binds its own port, the full roster
// is handed to every node (the transport filters the self-address), and
// the paper's pipeline — heartbeat discovery, id exchange, back-off
// dissemination — runs on actual datagrams with the production wire
// format.
//
// Run with: go run ./examples/udpmesh
package main

import (
	"fmt"
	"log"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/topic"
	"repro/internal/transport"
)

const meshSize = 5

type clock struct{ start time.Time }

func (c clock) Now() time.Duration { return time.Since(c.start) }
func (c clock) After(d time.Duration, fn func()) core.Timer {
	return timer{time.AfterFunc(d, fn)}
}

type timer struct{ t *time.Timer }

func (t timer) Stop() bool { return t.t.Stop() }

func main() {
	sched := clock{start: time.Now()}
	alerts := topic.MustParse(".mesh.alerts")

	type node struct {
		udp   *transport.UDP
		proto *core.Safe
	}
	nodes := make([]*node, meshSize)

	var delivered sync.WaitGroup
	for i := range nodes {
		i := i
		n := &node{}
		udp, err := transport.NewUDP(transport.UDPConfig{
			Listen:  "127.0.0.1:0",
			Handler: func(m event.Message) { _ = n.proto.HandleMessage(m) },
		})
		if err != nil {
			log.Fatalf("UDP bind: %v", err)
		}
		defer udp.Close()
		n.udp = udp

		proto, err := core.NewSafe(core.Config{
			ID:           event.NodeID(i),
			HBDelay:      200 * time.Millisecond,
			HBUpperBound: 200 * time.Millisecond,
			OnDeliver: func(ev event.Event) {
				fmt.Printf("%8s node %d <- %q (event %s)\n",
					sched.Now().Round(time.Millisecond), i, ev.Payload, ev.ID.String()[:8])
				delivered.Done()
			},
		}, sched, udp)
		if err != nil {
			log.Fatal(err)
		}
		defer proto.Stop()
		n.proto = proto
		// Start the read loop only after n.proto is assigned: the handler
		// above closes over it.
		udp.Start()
		nodes[i] = n
		fmt.Printf("node %d listening on %s\n", i, udp.LocalAddr())
	}

	// Hand every node the full roster; self-addresses are filtered.
	for _, a := range nodes {
		for _, b := range nodes {
			if err := a.udp.AddPeer(b.udp.LocalAddr().String()); err != nil {
				log.Fatal(err)
			}
		}
	}
	for _, n := range nodes {
		if err := n.proto.Subscribe(alerts); err != nil {
			log.Fatal(err)
		}
	}

	// A few heartbeat rounds of discovery.
	time.Sleep(600 * time.Millisecond)
	for i, n := range nodes {
		fmt.Printf("node %d neighbors: %v\n", i, n.proto.NeighborIDs())
	}

	delivered.Add(meshSize) // everyone, publisher included, is subscribed
	if _, err := nodes[2].proto.Publish(alerts, []byte("perimeter breach, dock 4"), time.Minute); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%8s node 2 published\n", sched.Now().Round(time.Millisecond))

	done := make(chan struct{})
	go func() { delivered.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		log.Fatal("timed out waiting for mesh-wide delivery")
	}

	var wire transport.Stats
	for _, n := range nodes {
		wire = wire.Add(n.udp.Stats())
	}
	fmt.Printf("\nmesh-wide delivery complete: %d datagrams sent, %d received\n",
		wire.DatagramsSent, wire.DatagramsReceived)
}
