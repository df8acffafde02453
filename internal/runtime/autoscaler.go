package runtime

import (
	"fmt"
	"sync"
	"time"

	"chc/internal/transport"
)

// Autoscaler is the load-driven scaling policy on top of the Controller:
// it samples a vertex's per-instance processing rate every Interval and
// reconciles the replica count into a target load band — scale out when
// the serving instances sustain more than HighPPS each, scale in when
// they sustain less than LowPPS each — with hysteresis (consecutive
// out-of-band samples required) and a cooldown between actions so a noisy
// steady load never flaps. It runs as a transport proc: on the DES its
// samples land at deterministic virtual instants (convergence is testable
// packet-for-packet), and in live mode the same code reacts to real
// wall-clock load. The paper's contribution is that the resulting
// reconfigurations are SAFE (Fig 4 handovers, duplicate suppression); the
// policy itself is deliberately simple.
type AutoscalerConfig struct {
	// Vertex names the vertex to manage.
	Vertex string
	// Min and Max bound the replica count. Min below 1 is raised to 1
	// (the controller's replica floor).
	Min, Max int
	// LowPPS / HighPPS is the target per-instance load band in
	// packets/second of substrate time.
	LowPPS, HighPPS float64
	// Interval is the sampling period. Zero uses 10ms.
	Interval time.Duration
	// Hysteresis is how many CONSECUTIVE out-of-band samples trigger an
	// action; an in-band sample resets the streak. Zero uses 2.
	Hysteresis int
	// Cooldown is the minimum gap between actions (lets the previous
	// reconfiguration take effect before re-measuring). Zero uses 5x
	// Interval.
	Cooldown time.Duration
}

// ReplicaSample is one point of the replica trajectory: the serving
// replica count immediately after a change (or at autoscaler start).
type ReplicaSample struct {
	At       transport.Time `json:"at_ns"`
	Replicas int            `json:"replicas"`
}

// Autoscaler is one running policy instance (see Controller.StartAutoscaler).
type Autoscaler struct {
	ctl *Controller
	cfg AutoscalerConfig
	v   *Vertex

	mu            sync.Mutex
	evals         uint64
	actions       uint64
	last          string
	trajectory    []ReplicaSample
	lastProcessed uint64
	lastAction    transport.Time
	hiStreak      int
	loStreak      int
}

// StartAutoscaler validates cfg, attaches the policy to the controller
// and spawns its sampling proc on the chain's substrate. Multiple
// autoscalers may run, one per vertex.
func (ctl *Controller) StartAutoscaler(cfg AutoscalerConfig) (*Autoscaler, error) {
	v := ctl.chain.VertexByName(cfg.Vertex)
	if v == nil {
		return nil, fmt.Errorf("autoscaler: unknown vertex %q", cfg.Vertex)
	}
	if cfg.Min < 1 {
		cfg.Min = 1
	}
	if cfg.Max < cfg.Min {
		cfg.Max = cfg.Min
	}
	if cfg.HighPPS <= 0 {
		return nil, fmt.Errorf("autoscaler: HighPPS must be positive")
	}
	if cfg.LowPPS >= cfg.HighPPS {
		return nil, fmt.Errorf("autoscaler: LowPPS %.0f must sit below HighPPS %.0f", cfg.LowPPS, cfg.HighPPS)
	}
	if cfg.Interval <= 0 {
		cfg.Interval = 10 * time.Millisecond
	}
	if cfg.Hysteresis <= 0 {
		cfg.Hysteresis = 2
	}
	if cfg.Cooldown <= 0 {
		cfg.Cooldown = 5 * cfg.Interval
	}
	a := &Autoscaler{ctl: ctl, cfg: cfg, v: v}
	a.lastProcessed = a.processedSum()
	a.trajectory = []ReplicaSample{{At: ctl.chain.tr.Now(), Replicas: ctl.chain.liveReplicas(v)}}
	ctl.mu.Lock()
	ctl.autoscalers = append(ctl.autoscalers, a)
	ctl.mu.Unlock()
	ctl.chain.tr.Spawn(fmt.Sprintf("autoscaler-%s", cfg.Vertex), a.run)
	return a, nil
}

func (a *Autoscaler) run(p transport.Proc) {
	for {
		p.Sleep(a.cfg.Interval)
		a.evaluate(p.Now())
	}
}

// processedSum totals the vertex's per-instance processed counters,
// including draining and replaced instances still in the list: the sum is
// (nearly) monotonic, so interval deltas measure tier-wide service rate.
func (a *Autoscaler) processedSum() uint64 {
	var sum uint64
	for _, in := range a.ctl.chain.topo.Load().slotsOf(a.v) {
		sum += in.ProcessedCount()
	}
	return sum
}

// evaluate takes one sample and possibly emits a reconcile. The decision
// trail (evals, actions, last outcome, replica trajectory) is kept for
// Status and for the DES determinism tests.
func (a *Autoscaler) evaluate(now transport.Time) {
	c := a.ctl.chain
	sum := a.processedSum()

	a.mu.Lock()
	delta := int64(sum - a.lastProcessed)
	a.lastProcessed = sum
	if delta < 0 {
		delta = 0 // an instance left the list (failover slot swap, retirement)
	}
	replicas := c.liveReplicas(a.v)
	perInst := 0.0
	if replicas > 0 {
		perInst = float64(delta) / a.cfg.Interval.Seconds() / float64(replicas)
	}
	a.evals++
	dir := 0
	switch {
	case perInst > a.cfg.HighPPS:
		a.hiStreak++
		a.loStreak = 0
		if a.hiStreak >= a.cfg.Hysteresis && replicas < a.cfg.Max {
			dir = 1
		}
	case perInst < a.cfg.LowPPS:
		a.loStreak++
		a.hiStreak = 0
		if a.loStreak >= a.cfg.Hysteresis && replicas > a.cfg.Min {
			dir = -1
		}
	default:
		a.hiStreak, a.loStreak = 0, 0
	}
	inCooldown := a.lastAction != 0 && time.Duration(now-a.lastAction) < a.cfg.Cooldown
	act := dir != 0 && !inCooldown
	if act {
		a.lastAction = now
		a.hiStreak, a.loStreak = 0, 0
	}
	a.mu.Unlock()

	if act {
		// The delta resolves against the count the controller sees under
		// its own lock: a concurrent admin ApplySpec (live mode) may have
		// changed the replica count since this sample was taken, and an
		// absolute target computed from the stale count would clobber it.
		actions, target, err := a.ctl.adjustReplicas(a.cfg.Vertex, dir, a.cfg.Min, a.cfg.Max)
		a.mu.Lock()
		switch {
		case err != nil:
			a.last = fmt.Sprintf("%s reconcile failed: %v", a.cfg.Vertex, err)
		case len(actions) > 0:
			a.actions++
			a.last = fmt.Sprintf("%s %+d->%d at %.0fpps/inst", a.cfg.Vertex, dir, target, perInst)
			a.trajectory = append(a.trajectory, ReplicaSample{At: now, Replicas: target})
		default:
			a.last = fmt.Sprintf("%s already at %d replicas", a.cfg.Vertex, target)
		}
		a.mu.Unlock()
	}
	evals, actions, _ := a.Counters()
	c.Metrics.SetCounter("autoscaler."+a.cfg.Vertex+".evals", evals)
	c.Metrics.SetCounter("autoscaler."+a.cfg.Vertex+".actions", actions)
}

// Counters snapshots the decision counters: samples evaluated, scaling
// actions taken, and a human-readable note on the last decision.
func (a *Autoscaler) Counters() (evals, actions uint64, last string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.evals, a.actions, a.last
}

// Trajectory returns the replica-count history: the starting count plus
// one sample per action. On the DES it is bit-for-bit reproducible for a
// given seed and workload — the autoscale experiment's parity assertion.
func (a *Autoscaler) Trajectory() []ReplicaSample {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]ReplicaSample(nil), a.trajectory...)
}

// TrajectoryString renders the trajectory as "1→2→3→2→1" (the compact
// form the autoscale experiment table and its parity test pin).
func (a *Autoscaler) TrajectoryString() string {
	s := ""
	for i, p := range a.Trajectory() {
		if i > 0 {
			s += "→"
		}
		s += fmt.Sprintf("%d", p.Replicas)
	}
	return s
}
