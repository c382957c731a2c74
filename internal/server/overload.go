package server

import "time"

// Overload control. DMCS query cost is wildly skewed — a whale-component
// peel costs six orders of magnitude more than a cache hit — so a fixed
// admission policy either wastes capacity (tuned for whales) or
// collapses (tuned for hits). The server instead runs a three-state
// controller fed by two signals: how full the bounded admission queue
// is, and where the served p99 sits against the SLO target.
//
//	healthy ──(queue ≥ high OR p99 > SLO)──► shed-expensive
//	shed-expensive ──(queue ≥ full OR p99 ≥ 2·SLO)──► stale-serve
//	any ──(queue ≤ low AND p99 ≤ SLO, for CalmSamples consecutive
//	       samples)──► one state down
//
// In shed-expensive, queries classified expensive (big components) are
// answered from the stale cache when possible and shed otherwise, while
// cheap queries keep flowing — one whale storm cannot starve the
// interactive traffic. In stale-serve, the server stops starting ANY
// new peels: everything is answered from cached (possibly epoch-stale,
// explicitly flagged) results or shed with Retry-After. Recovery steps
// down one state at a time and only after a run of calm samples, so the
// controller cannot flap at a watermark.
//
// The controller itself is a pure, single-goroutine state machine —
// Observe takes a sample, returns the state — so every transition is
// table-testable without clocks or load. The Server feeds it from a
// background sampler and publishes the state in an atomic for handlers.

// OverloadState is the controller's degradation level. Order matters:
// higher states are stricter, and recovery steps down one level at a
// time.
type OverloadState int32

const (
	// StateHealthy admits everything that passes the token buckets and
	// the bounded queue.
	StateHealthy OverloadState = iota
	// StateShedExpensive sheds expensive-class queries (stale answers
	// allowed); cheap queries flow normally.
	StateShedExpensive
	// StateStaleServe starts no new peels: cached/stale answers or
	// explicit shed responses only.
	StateStaleServe
)

// String returns the state's wire name (as reported by /stats and
// /healthz).
func (s OverloadState) String() string {
	switch s {
	case StateHealthy:
		return "healthy"
	case StateShedExpensive:
		return "shed-expensive"
	case StateStaleServe:
		return "stale-serve"
	}
	return "unknown"
}

// Admission-queue fullness fractions: a sample at or above highWater
// escalates to shed-expensive, one at or above fullWater to stale-serve,
// and one at or below lowWater counts as calm (p99 must also be within
// the SLO).
const (
	highWater = 0.75
	fullWater = 0.95
	lowWater  = 0.25
)

// OverloadConfig tunes the controller's latency target and hysteresis.
// The zero value is filled in by defaults().
type OverloadConfig struct {
	// SLO is the p99 latency target; p99 above it escalates one level,
	// p99 at 2× or beyond escalates straight to stale-serve. 0 disables
	// the latency signal (queue depth still escalates).
	SLO time.Duration
	// CalmSamples is how many consecutive calm samples are required to
	// step down one state — the hysteresis that stops flapping.
	CalmSamples int
}

func (c *OverloadConfig) defaults() {
	if c.CalmSamples == 0 {
		c.CalmSamples = 5
	}
}

// overloadController is the pure state machine. Not safe for concurrent
// use — the Server samples from one goroutine and publishes the
// resulting state atomically.
type overloadController struct {
	cfg   OverloadConfig
	state OverloadState
	calm  int
}

func newOverloadController(cfg OverloadConfig) *overloadController {
	cfg.defaults()
	return &overloadController{cfg: cfg}
}

// Observe feeds one sample (queue fullness in [0,1], served p99) and
// returns the resulting state.
func (c *overloadController) Observe(queueFrac float64, p99 time.Duration) OverloadState {
	sloBlown := c.cfg.SLO > 0 && p99 > c.cfg.SLO
	sloCollapsed := c.cfg.SLO > 0 && p99 >= 2*c.cfg.SLO
	switch {
	case queueFrac >= fullWater || sloCollapsed:
		c.state = StateStaleServe
		c.calm = 0
	case queueFrac >= highWater || sloBlown:
		if c.state < StateShedExpensive {
			c.state = StateShedExpensive
		}
		c.calm = 0
	case queueFrac <= lowWater && !sloBlown:
		c.calm++
		if c.calm >= c.cfg.CalmSamples && c.state > StateHealthy {
			c.state--
			c.calm = 0
		}
	default:
		// In-between load: neither escalate nor make recovery progress.
		c.calm = 0
	}
	return c.state
}
