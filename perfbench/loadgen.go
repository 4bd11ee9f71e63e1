package main

import (
	"context"
	"sync"
	"time"
)

// sample is one sent request and its outcome.
type sample struct {
	op *op
	// intended is when an open-loop schedule meant to send the request
	// (zero for closed-loop requests, which are due when sent).
	intended   time.Time
	sent, done time.Time
	status     int
	err        error
	body       []byte
	timing     string // Server-Timing header
	// answers holds the parsed answers of a 2xx read, filled by the
	// result tally.
	answers []answer
}

func (s *sample) ok() bool { return s.err == nil && s.status/100 == 2 }

// latencyMs is the request's latency from its due time: the intended send
// time in an open loop, so a stall also charges the requests queued
// behind it (no coordinated omission).
func (s *sample) latencyMs() float64 {
	due := s.intended
	if due.IsZero() {
		due = s.sent
	}
	return ms(s.done.Sub(due))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// sender is what the load generator needs from a server.
type sender interface {
	do(ctx context.Context, o *op) (status int, body []byte, timing string, err error)
}

func send(ctx context.Context, srv sender, s *sample) {
	s.sent = time.Now()
	s.status, s.body, s.timing, s.err = srv.do(ctx, s.op)
	s.done = time.Now()
}

// openLoop sends ops on a fixed-rate schedule through conns connections.
// A dispatcher releases op i at start + i/rate into a queue that conns
// workers drain; a request that waits for a free connection is still
// timed from its due time. lagMs records how late the dispatcher itself
// released each op.
func openLoop(ctx context.Context, srv sender, ops []*op, rate float64, conns int) (out []sample, lagMs []float64) {
	out = make([]sample, len(ops))
	lagMs = make([]float64, len(ops))
	queue := make(chan int, len(ops)) // one slot per op: the dispatcher never blocks
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				send(ctx, srv, &out[i])
			}
		}()
	}
	start := time.Now().Add(5 * time.Millisecond)
	for i, o := range ops {
		due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		out[i].op, out[i].intended = o, due
		lagMs[i] = ms(time.Since(due))
		queue <- i
	}
	close(queue)
	wg.Wait()
	return out, lagMs
}

// closedLoop runs conns clients that each send their next op as soon as
// the previous one completes, until n ops have been sent; elapsed runs
// until the last request completes.
func closedLoop(ctx context.Context, srv sender, next func() *op, conns, n int) (out []sample, elapsed time.Duration) {
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				if n == 0 {
					mu.Unlock()
					return
				}
				n--
				s := sample{op: next()}
				mu.Unlock()
				send(ctx, srv, &s)
				mu.Lock()
				out = append(out, s)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return out, time.Since(start)
}

// listed is a closedLoop op source that yields ops in order.
func listed(ops []*op) func() *op {
	i := 0
	return func() *op { i++; return ops[i-1] }
}
