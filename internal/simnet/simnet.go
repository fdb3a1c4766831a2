package simnet

import (
	"sync"
	"sync/atomic"
	"time"

	"wsda/internal/pdp"
	"wsda/internal/telemetry"
)

// DelayFunc returns the one-way latency of the link from -> to.
type DelayFunc func(from, to string) time.Duration

// DropFunc reports whether a given message should be lost in transit.
type DropFunc func(msg *pdp.Message) bool

// Config configures a simulated network.
type Config struct {
	// Delay computes per-link latency; nil means zero latency everywhere.
	Delay DelayFunc
	// Drop injects message loss; nil delivers everything.
	Drop DropFunc
	// CountBytes enables wire-size accounting (serializes every message
	// once; costs CPU, so benchmarks opt in).
	CountBytes bool

	// Bandwidth, when positive, models link capacity in bytes per second:
	// each message's transfer adds WireSize/Bandwidth on top of the
	// propagation delay, and messages on one link serialize behind each
	// other (a busy link backs up). Implies byte accounting.
	Bandwidth int64

	// Metrics, when set, exports the network counters and a per-message
	// link-delay histogram.
	Metrics *telemetry.Metrics

	// Faults, when set, attaches a scriptable fault model (loss, jitter,
	// reordering, partitions, crashes) consulted on every Send after the
	// static Drop hook. See Faults and FaultSchedule.
	Faults *Faults
}

// Stats are cumulative network counters.
type Stats struct {
	Messages int64 // messages accepted for delivery
	Bytes    int64 // wire bytes (0 unless CountBytes)
	Dropped  int64 // messages lost by Drop injection
	DeadAddr int64 // messages to unregistered addresses
}

// Network is an in-process pdp.Network. The zero value is not usable; call
// New.
//
// Delivery is FIFO per (from, to) link even when the link has latency,
// matching the ordered-stream semantics of the HTTP/TCP binding the
// protocol runs over in a real deployment.
type Network struct {
	cfg Config

	mu      sync.RWMutex
	boxes   map[string]*mailbox
	crashed map[string]pdp.Handler // handlers saved across Crash/Restart

	linkMu sync.Mutex
	links  map[string]*link

	messages, bytes, dropped, deadAddr atomic.Int64

	perKind [8]atomic.Int64 // messages by pdp.Kind

	delaySeconds *telemetry.Histogram
}

// New creates a network.
func New(cfg Config) *Network {
	n := &Network{
		cfg:     cfg,
		boxes:   make(map[string]*mailbox),
		crashed: make(map[string]pdp.Handler),
		links:   make(map[string]*link),
	}
	if m := cfg.Metrics; m != nil {
		m.CounterFunc("wsda_simnet_messages_total",
			"Messages accepted for delivery.", n.messages.Load)
		m.CounterFunc("wsda_simnet_bytes_total",
			"Wire bytes (0 unless byte accounting is on).", n.bytes.Load)
		m.CounterFunc("wsda_simnet_dropped_total",
			"Messages lost by drop injection.", n.dropped.Load)
		m.CounterFunc("wsda_simnet_dead_addr_total",
			"Messages to unregistered addresses.", n.deadAddr.Load)
		n.delaySeconds = m.Histogram("wsda_simnet_delay_seconds",
			"Modeled link delay per delivered message.", nil)
	}
	return n
}

// link serializes delayed deliveries on one (from, to) pair.
type link struct {
	mu     sync.Mutex
	queue  []delivery
	armed  bool
	lastAt time.Time
}

type delivery struct {
	msg     *pdp.Message
	box     *mailbox
	readyAt time.Time
}

// push enqueues a delivery and arms the link timer if idle. Ready times
// are forced non-decreasing so reordering cannot happen even if the delay
// model is non-constant.
func (l *link) push(msg *pdp.Message, box *mailbox, readyAt time.Time) {
	l.mu.Lock()
	if readyAt.Before(l.lastAt) {
		readyAt = l.lastAt
	}
	l.lastAt = readyAt
	l.queue = append(l.queue, delivery{msg: msg, box: box, readyAt: readyAt})
	if !l.armed {
		l.armed = true
		l.arm()
	}
	l.mu.Unlock()
}

// arm schedules delivery of the queue head. Caller holds l.mu.
func (l *link) arm() {
	d := time.Until(l.queue[0].readyAt)
	if d < 0 {
		d = 0
	}
	time.AfterFunc(d, l.fire)
}

func (l *link) fire() {
	l.mu.Lock()
	head := l.queue[0]
	l.queue = l.queue[1:]
	if len(l.queue) > 0 {
		l.arm()
	} else {
		l.armed = false
	}
	l.mu.Unlock()
	head.box.put(head.msg)
}

// Register implements pdp.Network.
func (n *Network) Register(addr string, h pdp.Handler) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if old, ok := n.boxes[addr]; ok {
		old.close()
	}
	n.boxes[addr] = newMailbox(h)
	return nil
}

// Unregister implements pdp.Network.
func (n *Network) Unregister(addr string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if b, ok := n.boxes[addr]; ok {
		b.close()
		delete(n.boxes, addr)
	}
}

// Send implements pdp.Network.
func (n *Network) Send(msg *pdp.Message) error {
	if n.cfg.Drop != nil && n.cfg.Drop(msg) {
		n.dropped.Add(1)
		return nil // silent loss, like the real network
	}
	var bypassFIFO bool
	var faultDelay time.Duration
	if f := n.cfg.Faults; f != nil {
		var drop bool
		drop, bypassFIFO, faultDelay = f.filter(msg)
		if drop {
			n.dropped.Add(1)
			return nil
		}
	}
	n.mu.RLock()
	box, ok := n.boxes[msg.To]
	n.mu.RUnlock()
	if !ok {
		n.deadAddr.Add(1)
		return pdp.ErrUnknownAddr
	}
	n.messages.Add(1)
	if int(msg.Kind) < len(n.perKind) {
		n.perKind[msg.Kind].Add(1)
	}
	var size int64
	if n.cfg.CountBytes || n.cfg.Bandwidth > 0 {
		size = int64(msg.WireSize())
		n.bytes.Add(size)
	}
	delay := faultDelay
	if n.cfg.Delay != nil {
		delay += n.cfg.Delay(msg.From, msg.To)
	}
	if n.cfg.Bandwidth > 0 {
		delay += time.Duration(size * int64(time.Second) / n.cfg.Bandwidth)
	}
	n.delaySeconds.ObserveDuration(delay)
	if delay <= 0 {
		box.put(msg)
		return nil
	}
	if bypassFIFO {
		// Reorder injection: deliver on an independent timer so this
		// message can overtake earlier ones queued on the same link.
		time.AfterFunc(delay, func() { box.put(msg) })
		return nil
	}
	// The link queue enforces per-link FIFO; with a bandwidth model its
	// non-decreasing ready times also serialize transfers behind each
	// other, so a large message delays the ones queued after it.
	n.linkOf(msg.From, msg.To).push(msg, box, time.Now().Add(delay))
	return nil
}

// Crash simulates a node dying at the transport layer: the address is
// unregistered — pending mail is discarded and senders get
// pdp.ErrUnknownAddr — but its handler is remembered so Restart can bring
// the node back without the caller re-plumbing it. For silent loss with the
// mailbox kept alive, use Faults.Crash instead.
func (n *Network) Crash(addr string) {
	n.mu.Lock()
	if box, ok := n.boxes[addr]; ok {
		n.crashed[addr] = box.h
		box.close()
		delete(n.boxes, addr)
	}
	n.mu.Unlock()
}

// Restart re-registers an address previously taken down by Crash with its
// saved handler. Restarting an address that was never crashed is a no-op.
func (n *Network) Restart(addr string) {
	n.mu.Lock()
	h, ok := n.crashed[addr]
	if ok {
		delete(n.crashed, addr)
	}
	n.mu.Unlock()
	if ok {
		_ = n.Register(addr, h)
	}
}

func (n *Network) linkOf(from, to string) *link {
	key := from + "\x00" + to
	n.linkMu.Lock()
	defer n.linkMu.Unlock()
	l, ok := n.links[key]
	if !ok {
		l = &link{}
		n.links[key] = l
	}
	return l
}

// Stats returns a snapshot of the counters.
func (n *Network) Stats() Stats {
	return Stats{
		Messages: n.messages.Load(),
		Bytes:    n.bytes.Load(),
		Dropped:  n.dropped.Load(),
		DeadAddr: n.deadAddr.Load(),
	}
}

// KindCount returns how many messages of the given kind were sent.
func (n *Network) KindCount(k pdp.Kind) int64 {
	if int(k) >= len(n.perKind) {
		return 0
	}
	return n.perKind[k].Load()
}

// ResetStats zeroes all counters (between benchmark phases).
func (n *Network) ResetStats() {
	n.messages.Store(0)
	n.bytes.Store(0)
	n.dropped.Store(0)
	n.deadAddr.Store(0)
	for i := range n.perKind {
		n.perKind[i].Store(0)
	}
}

// Close shuts down all mailboxes.
func (n *Network) Close() {
	n.mu.Lock()
	defer n.mu.Unlock()
	for a, b := range n.boxes {
		b.close()
		delete(n.boxes, a)
	}
}

// mailbox is an unbounded FIFO draining into a handler on one goroutine,
// so a flood can never deadlock on a full channel.
type mailbox struct {
	mu     sync.Mutex
	cond   *sync.Cond
	queue  []*pdp.Message
	closed bool
	h      pdp.Handler
}

func newMailbox(h pdp.Handler) *mailbox {
	b := &mailbox{h: h}
	b.cond = sync.NewCond(&b.mu)
	go b.drain()
	return b
}

func (b *mailbox) put(m *pdp.Message) {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return
	}
	b.queue = append(b.queue, m)
	b.mu.Unlock()
	b.cond.Signal()
}

func (b *mailbox) close() {
	b.mu.Lock()
	b.closed = true
	b.mu.Unlock()
	b.cond.Signal()
}

func (b *mailbox) drain() {
	for {
		b.mu.Lock()
		for len(b.queue) == 0 && !b.closed {
			b.cond.Wait()
		}
		if len(b.queue) == 0 && b.closed {
			b.mu.Unlock()
			return
		}
		m := b.queue[0]
		b.queue = b.queue[1:]
		b.mu.Unlock()
		b.h(m)
	}
}

// UniformDelay returns a DelayFunc with one latency for every link.
func UniformDelay(d time.Duration) DelayFunc {
	return func(string, string) time.Duration { return d }
}

// HostAwareDelay models container co-location (thesis Ch. 6.8): links
// between addresses on the same host (identical prefix before the last
// '/') are intra-container and take local; all others take remote.
func HostAwareDelay(local, remote time.Duration) DelayFunc {
	return func(from, to string) time.Duration {
		if hostOf(from) == hostOf(to) {
			return local
		}
		return remote
	}
}

func hostOf(addr string) string {
	for i := len(addr) - 1; i >= 0; i-- {
		if addr[i] == '/' {
			return addr[:i]
		}
	}
	return addr
}
