// Package rr implements classic Round-Robin scheduling (§III-C): a
// centralized global queue whose tasks each receive a fixed time slice;
// tasks that exhaust their slice are preempted and resume the next time
// the queue reaches them. Mechanically this is the fifo.Engine with a
// mandatory quantum, packaged as its own policy for the Fig 23 scheduler
// comparison.
package rr

import (
	"time"

	"github.com/faassched/faassched/internal/ghost"
	"github.com/faassched/faassched/internal/policy/fifo"
	"github.com/faassched/faassched/internal/simkern"
)

// DefaultQuantum is the RR time slice when Config.Quantum is zero.
const DefaultQuantum = 20 * time.Millisecond

// Config configures Round-Robin.
type Config struct {
	// Quantum is the time slice; defaults to DefaultQuantum.
	Quantum time.Duration
	// Tick is the agent scan period; defaults to fifo.DefaultTick.
	Tick time.Duration
}

// Policy is a standalone Round-Robin ghost.Policy.
type Policy struct {
	cfg    Config
	engine fifo.Engine
}

var (
	_ ghost.Policy        = (*Policy)(nil)
	_ ghost.Ticker        = (*Policy)(nil)
	_ ghost.HorizonTicker = (*Policy)(nil)
)

// New returns a Round-Robin policy.
func New(cfg Config) *Policy {
	if cfg.Quantum <= 0 {
		cfg.Quantum = DefaultQuantum
	}
	if cfg.Tick <= 0 {
		cfg.Tick = fifo.DefaultTick
	}
	return &Policy{cfg: cfg}
}

// Name implements ghost.Policy.
func (p *Policy) Name() string { return "rr" }

// Attach implements ghost.Policy.
func (p *Policy) Attach(env *ghost.Env) {
	p.engine.Init(env, 0, simkern.CoreID(env.Cores()), p.cfg.Quantum)
}

// OnMessage implements ghost.Policy.
func (p *Policy) OnMessage(m ghost.Message) {
	switch m.Type {
	case ghost.MsgTaskNew:
		p.engine.Enqueue(m.Task)
	case ghost.MsgTaskDead:
		p.engine.TaskDead()
	}
}

// TickEvery implements ghost.Ticker.
func (p *Policy) TickEvery() time.Duration { return p.cfg.Tick }

// OnTick implements ghost.Ticker.
func (p *Policy) OnTick() { p.engine.Tick() }

// NextDecision implements ghost.HorizonTicker: RR's quantum expiries are
// exactly the fifo.Engine's analytic horizon (its quantum is mandatory
// here), so all-scheduler sweeps stop paying RR's every-millisecond pump.
func (p *Policy) NextDecision(now time.Duration) (time.Duration, bool) {
	return p.engine.NextDecision(now)
}
