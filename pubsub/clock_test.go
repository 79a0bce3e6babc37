package pubsub

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
)

// TestStoppedWallTimerNeverRuns fires a wall-clock timer while the test
// holds the node's lock, so its callback is left waiting for the lock,
// and then stops (or re-arms) the timer before releasing it: the stale
// callback must not run, as a stopped timer cannot in the simulator. A
// protocol that stopped its heartbeat and started a new one would
// otherwise run two heartbeat chains.
func TestStoppedWallTimerNeverRuns(t *testing.T) {
	for _, tc := range []struct {
		name   string
		cancel func(core.Timer) bool
	}{
		{"Stop", func(tm core.Timer) bool { return tm.Stop() }},
		{"Reset", func(tm core.Timer) bool { return tm.Reset(time.Hour) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n, err := NewNode(Config{ID: 1}, nullTransport{})
			if err != nil {
				t.Fatal(err)
			}
			defer n.Close()
			var ran atomic.Int32
			n.mu.Lock()
			tm := wallClock{n}.After(time.Millisecond, func() { ran.Add(1) })
			time.Sleep(20 * time.Millisecond) // fired; the callback waits for the lock
			if !tc.cancel(tm) {
				t.Errorf("%s of a fired timer whose callback has not run reports false", tc.name)
			}
			n.mu.Unlock()
			time.Sleep(20 * time.Millisecond)
			if got := ran.Load(); got != 0 {
				t.Fatalf("the callback ran %d times after %s", got, tc.name)
			}
		})
	}
	t.Run("Unstopped", func(t *testing.T) {
		n, err := NewNode(Config{ID: 1}, nullTransport{})
		if err != nil {
			t.Fatal(err)
		}
		defer n.Close()
		ran := make(chan struct{}, 2)
		n.mu.Lock()
		tm := wallClock{n}.After(time.Millisecond, func() { ran <- struct{}{} })
		tm.Reset(time.Millisecond)
		n.mu.Unlock()
		select {
		case <-ran:
		case <-time.After(5 * time.Second):
			t.Fatal("a re-armed timer never ran")
		}
		time.Sleep(20 * time.Millisecond)
		if len(ran) != 0 {
			t.Fatal("a timer re-armed before it fired ran twice")
		}
	})
}
