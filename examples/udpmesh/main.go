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

	"repro/pubsub"
)

const meshSize = 5

func main() {
	start := time.Now()
	alerts := pubsub.MustParseTopic(".mesh.alerts")

	nodes := make([]*pubsub.Node, meshSize)
	var delivered sync.WaitGroup
	for i := range nodes {
		i := i
		n, err := pubsub.NewUDPNode(pubsub.Config{
			ID:           pubsub.NodeID(i),
			HBDelay:      200 * time.Millisecond,
			HBUpperBound: 200 * time.Millisecond,
			OnDeliver: func(ev pubsub.Event) {
				fmt.Printf("%8s node %d <- %q (event %s)\n",
					time.Since(start).Round(time.Millisecond), i, ev.Payload, ev.ID.String()[:8])
				delivered.Done()
			},
		}, "127.0.0.1:0", nil)
		if err != nil {
			log.Fatalf("UDP node: %v", err)
		}
		defer n.Close()
		nodes[i] = n
		fmt.Printf("node %d listening on %s\n", i, n.LocalAddr())
	}

	// Hand every node the full roster; self-addresses are filtered.
	for _, a := range nodes {
		for _, b := range nodes {
			if err := a.AddPeer(b.LocalAddr()); err != nil {
				log.Fatal(err)
			}
		}
	}
	for _, n := range nodes {
		if err := n.Subscribe(alerts); err != nil {
			log.Fatal(err)
		}
	}

	// A few heartbeat rounds of discovery.
	time.Sleep(600 * time.Millisecond)
	for i, n := range nodes {
		fmt.Printf("node %d neighbors: %v\n", i, n.Neighbors())
	}

	delivered.Add(meshSize) // everyone, publisher included, is subscribed
	if _, err := nodes[2].Publish(alerts, []byte("perimeter breach, dock 4"), time.Minute); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%8s node 2 published\n", time.Since(start).Round(time.Millisecond))

	done := make(chan struct{})
	go func() { delivered.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		log.Fatal("timed out waiting for mesh-wide delivery")
	}

	var wire pubsub.TransportStats
	for _, n := range nodes {
		wire = wire.Add(n.TransportStats())
	}
	fmt.Printf("\nmesh-wide delivery complete: %d datagrams sent, %d received\n",
		wire.DatagramsSent, wire.DatagramsReceived)
}
