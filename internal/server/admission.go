package server

// Admission control for the search endpoints. Cheap read-only
// endpoints (/healthz, /metrics, ...) are never gated — an overloaded
// process must stay observable — but /complete and /evaluate run
// Algorithm 2, whose worst case is exponential in the schema, so the
// number running at once is bounded by a semaphore with a bounded wait
// queue. Requests beyond the queue are shed immediately with
// 429 + Retry-After: under overload a fast "come back later" beats a
// slow success, and the retrying client re-enters the queue with
// backoff instead of piling onto a dying process.

import (
	"context"
	"errors"
)

// admitOutcome is the result of one admission attempt.
type admitOutcome int

const (
	admitOK       admitOutcome = iota // slot acquired; caller must release
	admitShed                         // queue full: shed with 429
	admitCanceled                     // caller's context ended while queued
)

// gate is a concurrency-limiting semaphore with a bounded wait queue.
type gate struct {
	slots chan struct{} // buffered semaphore: len == searches in flight
	queue chan struct{} // buffered: len == requests waiting for a slot
}

func newGate(width, queueLen int) *gate {
	return &gate{
		slots: make(chan struct{}, width),
		queue: make(chan struct{}, queueLen),
	}
}

// acquire tries to take a slot, waiting in the bounded queue when the
// gate is saturated. On admitOK the caller must call release exactly
// once.
func (g *gate) acquire(ctx context.Context) admitOutcome {
	// Fast path: a free slot, no queue.
	select {
	case g.slots <- struct{}{}:
		return admitOK
	default:
	}
	// Saturated: enter the bounded wait queue or shed.
	select {
	case g.queue <- struct{}{}:
	default:
		return admitShed
	}
	defer func() { <-g.queue }()
	select {
	case g.slots <- struct{}{}:
		return admitOK
	case <-ctx.Done():
		return admitCanceled
	}
}

// release returns a slot taken by acquire.
func (g *gate) release() { <-g.slots }

// inFlight reports the number of held slots.
func (g *gate) inFlight() int { return len(g.slots) }

// queued reports the number of waiters.
func (g *gate) queued() int { return len(g.queue) }

// errShed is the message of a shed search, on every surface.
var errShed = errors.New("server overloaded: admission queue full")

// admit takes one admission slot for a search — REST routes and
// session keystrokes alike — with the shared inflight, shed and
// queue-timeout accounting. On admitOK the caller must call release
// exactly once.
func (sv *Server) admit(ctx context.Context) admitOutcome {
	outcome := sv.gate.acquire(ctx)
	switch outcome {
	case admitOK:
		sv.met.inflight.Inc()
	case admitShed:
		sv.met.sheds.Inc()
	default: // admitCanceled
		sv.met.timeouts.Inc()
	}
	return outcome
}

// release returns a slot taken by admit.
func (sv *Server) release() {
	sv.met.inflight.Dec()
	sv.gate.release()
}
