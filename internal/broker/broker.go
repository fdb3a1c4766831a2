package broker

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"wsda/internal/registry"
	"wsda/internal/resilience"
	"wsda/internal/telemetry"
	"wsda/internal/wsda"
	"wsda/internal/xmldoc"
)

// Constraint is one attribute predicate of an operation spec, e.g.
// {"load", "<", "0.5"} or {"diskGB", ">=", "1000"}.
type Constraint struct {
	Attr  string // service attribute name, e.g. "load"
	Op    string // "<", "<=", ">", ">=", "=", "!="
	Value string // literal the attribute is compared against
}

// OpSpec is one abstract operation of a request.
type OpSpec struct {
	// Name is the logical step name, e.g. "stage-in".
	Name string
	// Interface and Operation state what the executing service must
	// implement; Protocol optionally pins the binding.
	Interface string
	Operation string // operation name within Interface
	Protocol  string // optional binding protocol filter, e.g. "http"
	// Constraints filter candidates on service attributes.
	Constraints []Constraint
	// AffinityWith names another OpSpec whose chosen service's domain this
	// operation prefers (data-locality: run the job where the data is).
	AffinityWith string
}

// Request is a unit of work needing several correlated services (the
// thesis example: file transfer + replica catalog + request execution).
type Request struct {
	ID  string   // caller-chosen request identifier, echoed in reports
	Ops []OpSpec // the correlated operations to be brokered together
}

// Candidate is a discovered service able to execute an operation.
type Candidate struct {
	Service  *wsda.Service // parsed service description
	Link     string        // tuple link (service identity)
	Endpoint string        // bound invocation endpoint for the operation
	Load     float64       // advertised load attribute (0 when absent)
}

// Discoverer finds candidates for an operation spec (the discovery step).
type Discoverer interface {
	// Discover returns every candidate service able to satisfy the spec.
	Discover(spec OpSpec) ([]Candidate, error)
}

// RegistryDiscoverer discovers candidates through a WSDA XQuery interface
// by compiling the spec into a discovery query.
type RegistryDiscoverer struct {
	Node wsda.XQueryIface // the registry (local or remote) to query
}

// Discover implements Discoverer. The generated query selects service
// tuples, filters on constraints server-side, and returns the matching
// service elements; interface matching happens client-side through the
// parsed description (bindings need structural inspection anyway).
func (d *RegistryDiscoverer) Discover(spec OpSpec) ([]Candidate, error) {
	query := buildDiscoveryQuery(spec)
	seq, err := d.Node.XQuery(query, registry.QueryOptions{})
	if err != nil {
		return nil, fmt.Errorf("broker: discovery for %s: %w", spec.Name, err)
	}
	var out []Candidate
	for _, it := range seq {
		n, ok := it.(*xmldoc.Node)
		if !ok {
			continue
		}
		svc, err := wsda.ServiceFromXML(n)
		if err != nil {
			continue
		}
		if spec.Interface != "" && !svc.Matches(wsda.MatchSpec{
			Interface: spec.Interface, Operation: spec.Operation, Protocol: spec.Protocol,
		}) {
			continue
		}
		load := 0.0
		if s, ok := svc.Attributes["load"]; ok {
			load, _ = strconv.ParseFloat(s, 64)
		}
		ep := ""
		if spec.Interface != "" {
			proto := spec.Protocol
			if proto == "" {
				proto = "http"
			}
			ep = svc.Endpoint(spec.Interface, spec.Operation, proto)
		}
		out = append(out, Candidate{Service: svc, Link: svc.Link, Endpoint: ep, Load: load})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Load < out[j].Load })
	return out, nil
}

// buildDiscoveryQuery renders an OpSpec as an XQuery over the registry's
// tuple-set view.
func buildDiscoveryQuery(spec OpSpec) string {
	var conds []string
	for _, c := range spec.Constraints {
		op := c.Op
		if op == "" {
			op = "="
		}
		if _, err := strconv.ParseFloat(c.Value, 64); err == nil {
			conds = append(conds, fmt.Sprintf(
				`number($s/attr[@name=%q]/@value) %s %s`, c.Attr, op, c.Value))
		} else {
			conds = append(conds, fmt.Sprintf(
				`$s/attr[@name=%q]/@value %s %q`, c.Attr, op, c.Value))
		}
	}
	where := ""
	if len(conds) > 0 {
		where = "where " + strings.Join(conds, " and ")
	}
	return fmt.Sprintf(`for $s in /tupleset/tuple/content/service %s return $s`, where)
}

// Assignment binds one operation to a concrete candidate, with the
// runner's failover alternatives.
type Assignment struct {
	Op           string      // OpSpec.Name this assignment covers
	Chosen       Candidate   // cheapest candidate satisfying the spec
	Alternatives []Candidate // sorted by increasing cost, excluding Chosen
}

// Schedule is the brokering result: a mapping of operations to service
// invocations (thesis Ch. 2.7).
type Schedule struct {
	Request string       // Request.ID this schedule answers
	Assign  []Assignment // one entry per operation, in request order
	Cost    float64      // summed cost of the chosen candidates
}

// PlanConfig tunes the brokering cost function.
type PlanConfig struct {
	// AffinityPenalty is added when an operation lands in a different
	// domain than its affinity target. Default 1.0 (dominates load).
	AffinityPenalty float64

	// Metrics, when set, receives discovery latency histograms.
	Metrics *telemetry.Metrics
}

// Plan performs the brokering step: discover candidates per operation and
// greedily choose the cheapest assignment, honoring locality affinities
// (operations are processed in order, so affinity targets must precede
// their dependents).
func Plan(req Request, disc Discoverer, cfg PlanConfig) (*Schedule, error) {
	if cfg.AffinityPenalty == 0 {
		cfg.AffinityPenalty = 1.0
	}
	discoverSeconds := cfg.Metrics.Histogram("wsda_broker_discover_seconds",
		"Latency of candidate discovery per operation.", nil)
	chosenDomain := map[string]string{}
	sched := &Schedule{Request: req.ID}
	for _, spec := range req.Ops {
		var d0 time.Time
		if discoverSeconds != nil {
			d0 = time.Now()
		}
		cands, err := disc.Discover(spec)
		discoverSeconds.ObserveSince(d0)
		if err != nil {
			return nil, err
		}
		if len(cands) == 0 {
			return nil, fmt.Errorf("broker: no candidate for operation %q", spec.Name)
		}
		affDomain := ""
		if spec.AffinityWith != "" {
			d, ok := chosenDomain[spec.AffinityWith]
			if !ok {
				return nil, fmt.Errorf("broker: %q has affinity with unknown/later op %q", spec.Name, spec.AffinityWith)
			}
			affDomain = d
		}
		cost := func(c Candidate) float64 {
			v := c.Load
			if affDomain != "" && c.Service.Domain != affDomain {
				v += cfg.AffinityPenalty
			}
			return v
		}
		sort.SliceStable(cands, func(i, j int) bool { return cost(cands[i]) < cost(cands[j]) })
		a := Assignment{Op: spec.Name, Chosen: cands[0], Alternatives: cands[1:]}
		sched.Assign = append(sched.Assign, a)
		sched.Cost += cost(cands[0])
		chosenDomain[spec.Name] = cands[0].Service.Domain
	}
	return sched, nil
}

// Executor invokes one assignment (the execution step). Implementations
// range from real HTTP invocations to the simulator used in tests.
type Executor interface {
	// Invoke runs the operation; progress may be reported through beat
	// (the control channel): calling beat() renews the runner's stall
	// timer, mirroring the soft-state heartbeats of thesis Ch. 2.9.
	Invoke(op string, c Candidate, beat func()) error
}

// ExecutorFunc adapts a function to Executor.
type ExecutorFunc func(op string, c Candidate, beat func()) error

// Invoke implements Executor.
func (f ExecutorFunc) Invoke(op string, c Candidate, beat func()) error { return f(op, c, beat) }

// OpState is the lifecycle state of one operation (the control step).
type OpState string

// Lifecycle states.
const (
	StatePending OpState = "pending"
	StateRunning OpState = "running"
	StateDone    OpState = "done"
	StateFailed  OpState = "failed"
)

// OpReport describes one operation's execution.
type OpReport struct {
	Op       string    // operation name
	State    OpState   // final state after all attempts
	Attempts []Attempt // every try, including skips and failovers
}

// Attempt is one invocation try.
type Attempt struct {
	Service  string        // candidate service name
	Err      string        // failure reason ("" on success)
	Stalled  bool          // aborted by stall detection (no heartbeat)
	Skipped  bool          // circuit open: candidate passed over without invoking
	Duration time.Duration // wall-clock time spent in the invocation
}

// Report is the outcome of running a schedule.
type Report struct {
	Request string        // Request.ID
	Ops     []OpReport    // per-operation outcomes, in schedule order
	Elapsed time.Duration // total run time including backoff sleeps
}

// Succeeded reports whether every operation completed.
func (r *Report) Succeeded() bool {
	for _, o := range r.Ops {
		if o.State != StateDone {
			return false
		}
	}
	return true
}

// Runner executes schedules with failover and stall detection.
type Runner struct {
	// Exec performs one invocation attempt.
	Exec Executor
	// StallTimeout aborts an invocation if no heartbeat arrives for this
	// long (0 disables stall detection).
	StallTimeout time.Duration
	// MaxAttempts bounds tries per operation including failovers
	// (0 means 1 + len(alternatives)).
	MaxAttempts int

	// RetryBackoff, when positive, sleeps between failover attempts on an
	// exponential series (RetryBackoff, 2×, 4×, capped at 10×RetryBackoff)
	// so a transiently overloaded service is not hammered by immediate
	// failover storms. Zero keeps the historical fail-fast behavior.
	RetryBackoff time.Duration

	// Breaker, when set, is consulted per candidate (keyed by service
	// name): candidates whose circuit is open are skipped without an
	// invocation attempt, and every attempt outcome feeds back into it.
	// One Breaker is typically shared across runners so a service that
	// just failed for one request is skipped by the next.
	Breaker *resilience.Breaker

	// Metrics, when set, receives invocation latency histograms and
	// failover/stall counters.
	Metrics *telemetry.Metrics
}

// Run executes the schedule's operations in order, failing over to the
// next-best candidate on error or stall.
func (r *Runner) Run(s *Schedule) *Report {
	start := time.Now()
	var invokeSeconds *telemetry.Histogram
	var failovers, stalls, skips *telemetry.Counter
	var breakerOpen *telemetry.Gauge
	if m := r.Metrics; m != nil {
		invokeSeconds = m.Histogram("wsda_broker_invoke_seconds",
			"Latency of service invocation attempts.", nil)
		failovers = m.Counter("wsda_broker_failovers_total",
			"Invocation attempts beyond the first, per operation.")
		stalls = m.Counter("wsda_broker_stalls_total",
			"Invocations aborted by the control step's stall timeout.")
		skips = m.Counter("wsda_broker_breaker_skips_total",
			"Candidates passed over because their circuit was open.")
		breakerOpen = m.Gauge("wsda_broker_breaker_open",
			"Service circuits currently open (updated on breaker events).")
	}
	rep := &Report{Request: s.Request}
	for _, a := range s.Assign {
		or := OpReport{Op: a.Op, State: StateRunning}
		tries := append([]Candidate{a.Chosen}, a.Alternatives...)
		maxAttempts := r.MaxAttempts
		if maxAttempts <= 0 || maxAttempts > len(tries) {
			maxAttempts = len(tries)
		}
		backoff := resilience.NewBackoff(r.RetryBackoff, 10*r.RetryBackoff)
		attempts := 0
		for i := 0; i < len(tries) && attempts < maxAttempts; i++ {
			cand := tries[i]
			// Circuit-broken candidates are skipped without burning an
			// attempt: a service that keeps failing for everyone should not
			// cost this request an invocation round trip to rediscover it.
			if r.Breaker != nil && !r.Breaker.Allow(cand.Service.Name) {
				skips.Inc()
				or.Attempts = append(or.Attempts, Attempt{
					Service: cand.Service.Name, Skipped: true, Err: "circuit open",
				})
				continue
			}
			if attempts > 0 {
				failovers.Inc()
				if r.RetryBackoff > 0 {
					time.Sleep(backoff.Next())
				}
			}
			attempts++
			att, ok := r.invokeOnce(a.Op, cand)
			invokeSeconds.ObserveDuration(att.Duration)
			if att.Stalled {
				stalls.Inc()
			}
			or.Attempts = append(or.Attempts, att)
			if r.Breaker != nil {
				if ok {
					r.Breaker.Success(cand.Service.Name)
				} else {
					r.Breaker.Failure(cand.Service.Name)
				}
				if breakerOpen != nil {
					breakerOpen.Set(float64(r.Breaker.OpenCount()))
				}
			}
			if ok {
				or.State = StateDone
				break
			}
		}
		if or.State != StateDone {
			or.State = StateFailed
		}
		rep.Ops = append(rep.Ops, or)
		if or.State == StateFailed {
			// Later operations are pointless once a step fails.
			for _, rest := range s.Assign[len(rep.Ops):] {
				rep.Ops = append(rep.Ops, OpReport{Op: rest.Op, State: StatePending})
			}
			break
		}
	}
	rep.Elapsed = time.Since(start)
	return rep
}

// invokeOnce runs a single attempt with stall monitoring.
func (r *Runner) invokeOnce(op string, cand Candidate) (Attempt, bool) {
	att := Attempt{Service: cand.Service.Name}
	t0 := time.Now()
	if r.StallTimeout <= 0 {
		err := r.Exec.Invoke(op, cand, func() {})
		att.Duration = time.Since(t0)
		if err != nil {
			att.Err = err.Error()
			return att, false
		}
		return att, true
	}
	beatCh := make(chan struct{}, 16)
	done := make(chan error, 1)
	go func() {
		done <- r.Exec.Invoke(op, cand, func() {
			select {
			case beatCh <- struct{}{}:
			default:
			}
		})
	}()
	timer := time.NewTimer(r.StallTimeout)
	defer timer.Stop()
	for {
		select {
		case err := <-done:
			att.Duration = time.Since(t0)
			if err != nil {
				att.Err = err.Error()
				return att, false
			}
			return att, true
		case <-beatCh:
			if !timer.Stop() {
				<-timer.C
			}
			timer.Reset(r.StallTimeout)
		case <-timer.C:
			att.Duration = time.Since(t0)
			att.Stalled = true
			att.Err = fmt.Sprintf("broker: %s on %s stalled (> %v without heartbeat)", op, cand.Service.Name, r.StallTimeout)
			return att, false
		}
	}
}
