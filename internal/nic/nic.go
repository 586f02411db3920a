package nic

import (
	"fmt"
	"sync"

	"scap/internal/metrics"
	"scap/internal/pkt"
	"scap/internal/reassembly"
)

// Hardware capacities of the modeled controller (Intel 82599).
const (
	DefaultPerfectFilters   = 8192
	DefaultSignatureFilters = 32768
	DefaultQueueDepth       = 4096
)

// Config configures the model controller (Intel 82599) at the core of
// the Sim backend. The other backends have their own configs
// (PcapReplayConfig, AFPacketConfig); what every backend shares is the
// Frame/Stats/Capabilities surface, not this struct.
type Config struct {
	// Queues is the number of receive queues (one per core in Scap).
	Queues int
	// QueueDepth is the ring size of each receive queue in packets.
	QueueDepth int
	// RSSKey is the Toeplitz key; zero value selects the symmetric key.
	RSSKey RSSKey
	// PerfectFilterCap / SignatureFilterCap bound the FDIR tables.
	PerfectFilterCap   int
	SignatureFilterCap int
	// DynamicBalance enables the paper's §2.4 load balancing: new
	// connections landing on a queue holding a disproportionate share of
	// the active streams are redirected (via FDIR queue filters) to the
	// least-loaded queue.
	DynamicBalance bool
	// Defragment reassembles IPv4 fragments before RSS steering. Real
	// hardware hashes fragments on addresses only (no ports), which would
	// scatter a flow's fragments and whole packets across queues; the
	// capture framework enables this in strict mode so each flow's entire
	// byte stream reaches one core. (Comparable in spirit to receive-side
	// coalescing offloads.)
	Defragment bool
}

func (c *Config) applyDefaults() {
	if c.Queues <= 0 {
		c.Queues = 1
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = DefaultQueueDepth
	}
	if c.RSSKey == (RSSKey{}) {
		c.RSSKey = SymmetricRSSKey(0x6d5a)
	}
	if c.PerfectFilterCap <= 0 {
		c.PerfectFilterCap = DefaultPerfectFilters
	}
	if c.SignatureFilterCap <= 0 {
		c.SignatureFilterCap = DefaultSignatureFilters
	}
}

// Frame is one received frame with its capture timestamp, the unit every
// backend delivers in Batches. TS is the packet timestamp used by the
// protocol machinery — virtual time on the simulated backend, file time
// on pcap replay, kernel capture time on AF_PACKET; Ingest, when nonzero,
// is the capture-clock (metrics.Nanotime) stamp taken at backend ingest,
// carried to the engine so the ingest→engine stage latency can be
// measured on any backend.
type Frame struct {
	Data   []byte
	TS     int64
	Ingest int64
}

// ring is a fixed-capacity FIFO of frames.
type ring struct {
	buf  []Frame
	head int
	n    int
}

func (r *ring) push(f Frame) bool {
	if r.n == len(r.buf) {
		return false
	}
	r.buf[(r.head+r.n)%len(r.buf)] = f
	r.n++
	return true
}

func (r *ring) pop() (Frame, bool) {
	if r.n == 0 {
		return Frame{}, false
	}
	f := r.buf[r.head]
	r.buf[r.head] = Frame{}
	r.head = (r.head + 1) % len(r.buf)
	r.n--
	return f, true
}

// Stats aggregates capture-backend counters. Like real hardware, drop
// counts are only available in aggregate, not per filter — which is why
// Scap estimates per-flow statistics from FIN/RST sequence numbers. Every
// backend fills the same fields: DroppedFilter is an FDIR hardware drop on
// the simulated controller and a software-shim drop (cause "swfilter")
// elsewhere; DroppedRing is a full receive ring on the model NIC, a full
// PF_PACKET-style replay ring, or the kernel's tp_drops on AF_PACKET.
type Stats struct {
	Received       uint64 // frames offered to the backend
	DroppedFilter  uint64 // dropped by a drop filter (hardware FDIR or software shim)
	DroppedRing    uint64 // dropped because the destination ring was full
	Redirected     uint64 // steered by a queue filter (dynamic balancing)
	DecodeFailures uint64 // undecodable frames (delivered nowhere)
}

// NIC is the simulated multi-queue controller at the core of the Sim
// backend (the other backends replace it with a real socket or a file
// reader plus the software steering shim). A single mutex serializes all
// state-touching entry points: injectors steer frames (a burst per hold
// through Sim.ReceiveBatch, a frame per hold through Receive/Poll) while
// every core's kernel goroutine installs and removes FDIR filters
// (installFDIR on cutoff, expireFilters on deadlines) and any goroutine may
// read Stats — the software analogue of the hardware's register interface.
//
//scap:shared
type NIC struct {
	mu  sync.Mutex
	cfg Config // immutable after New
	// rss is cfg.RSSKey's hash table; immutable after New.
	rss *rssTable
	// rings is guarded by mu.
	rings []ring
	// filters is guarded by mu.
	filters *filterTable
	// defrag is guarded by mu.
	defrag *reassembly.Defragmenter
	// lb is guarded by mu.
	lb *balancer
	// stats is guarded by mu.
	stats Stats
	// highwater tracks per-queue occupancy peaks for tests; guarded by mu.
	highwater []int
	// scratch is guarded by mu.
	scratch pkt.Packet

	// flight (nil until PublishMetrics) records ring-full episodes and
	// balancer redirects; fullSince and fullDrops track each queue's open
	// episode (virtual-time start and frames dropped so far). All guarded by
	// mu.
	flight    *metrics.FlightRecorder
	fullSince []int64
	fullDrops []uint64
	// ringDrops attributes ring-full losses per queue; guarded by mu.
	ringDrops []uint64
}

// New creates a NIC with cfg.
func New(cfg Config) *NIC {
	cfg.applyDefaults()
	n := &NIC{
		cfg:       cfg,
		rss:       newRSSTable(&cfg.RSSKey),
		rings:     make([]ring, cfg.Queues),
		filters:   newFilterTable(cfg.PerfectFilterCap, cfg.SignatureFilterCap),
		highwater: make([]int, cfg.Queues),
		fullSince: make([]int64, cfg.Queues),
		fullDrops: make([]uint64, cfg.Queues),
		ringDrops: make([]uint64, cfg.Queues),
	}
	for i := range n.rings {
		n.rings[i].buf = make([]Frame, cfg.QueueDepth)
	}
	if cfg.Defragment {
		n.defrag = reassembly.NewDefragmenter(0, 0)
	}
	if cfg.DynamicBalance && cfg.Queues > 1 {
		n.lb = newBalancer(cfg.Queues)
	}
	return n
}

// Queues returns the number of receive queues.
func (n *NIC) Queues() int { return n.cfg.Queues }

// Receive offers one frame to the NIC at virtual time ts. It returns the
// queue the frame was enqueued on, or -1 if the frame was dropped (by a
// filter, a full ring, or a decode failure).
func (n *NIC) Receive(data []byte, ts int64) int {
	return n.ReceiveAt(data, ts, 0)
}

// ReceiveAt is Receive with a capture-clock ingest stamp (metrics.Nanotime)
// carried on the enqueued frame; zero means unstamped and disables the
// ingest→engine latency observation for the frame.
func (n *NIC) ReceiveAt(data []byte, ts, ingest int64) int {
	n.mu.Lock()
	defer n.mu.Unlock()
	queue, data := n.steerLocked(data, ts)
	if queue < 0 {
		return -1
	}
	if !n.rings[queue].push(Frame{Data: data, TS: ts, Ingest: ingest}) {
		n.stats.DroppedRing++
		n.ringDrops[queue]++
		if n.flight != nil {
			if n.fullSince[queue] == 0 {
				n.fullSince[queue] = ts
				n.flight.Note(queue, metrics.FlightNICRingFull, int64(len(n.rings[queue].buf)), 0)
			}
			n.fullDrops[queue]++
		}
		return -1
	}
	n.acceptedLocked(queue, ts)
	if n.rings[queue].n > n.highwater[queue] {
		n.highwater[queue] = n.rings[queue].n
	}
	return queue
}

// steerLocked is the device's receive pipeline for one frame — decode,
// IPv4 defragmentation, RSS, FDIR lookup, dynamic balancing — and the only
// copy of it: the ring path (ReceiveAt) and the burst path
// (Sim.ReceiveBatch) both steer through here. It returns the destination
// queue and the frame bytes to deliver (rebuilt when a datagram completed),
// or -1 when the frame is consumed here: undecodable, held as a fragment,
// or dropped by a filter. Callers hold n.mu.
func (n *NIC) steerLocked(data []byte, ts int64) (int, []byte) {
	n.stats.Received++
	p := &n.scratch
	if err := pkt.Decode(data, p); err != nil {
		n.stats.DecodeFailures++
		return -1, nil
	}
	p.Timestamp = ts

	if p.IsFragment() && n.defrag != nil && p.IPVersion == 4 {
		if n.stats.Received%4096 == 0 {
			n.defrag.Expire(ts)
		}
		whole := n.defrag.Add(p)
		if whole == nil {
			return -1, nil // held until the datagram completes
		}
		data = pkt.RebuildIPv4Frame(p, whole)
		if err := pkt.Decode(data, p); err != nil {
			n.stats.DecodeFailures++
			return -1, nil
		}
		p.Timestamp = ts
	}

	queue := n.rss.queue(&p.Key, n.cfg.Queues)
	if f := n.filters.lookup(p); f != nil {
		switch f.Action {
		case ActionDrop:
			n.stats.DroppedFilter++
			return -1, nil
		case ActionQueue:
			if f.Queue >= 0 && f.Queue < len(n.rings) {
				queue = f.Queue
				n.stats.Redirected++
			}
		}
	}
	if n.lb != nil && p.Key.Proto == pkt.ProtoTCP {
		switch {
		case p.TCPFlags&pkt.FlagRST != 0:
			n.lb.close(n, p.Key, true)
		case p.TCPFlags&pkt.FlagFIN != 0:
			n.lb.close(n, p.Key, false)
		case p.TCPFlags&pkt.FlagSYN != 0 && p.TCPFlags&pkt.FlagACK == 0:
			rssQ := queue
			queue = n.lb.admit(n, p.Key, rssQ, ts)
			if queue != rssQ && n.flight != nil {
				n.flight.Note(rssQ, metrics.FlightFDIRRebalance, int64(rssQ), int64(queue))
			}
		}
	}
	return queue, data
}

// acceptedLocked closes queue's open ring-full episode, if any, now that
// the queue took a frame again: the record carries the episode's duration
// in virtual time and the frames lost during it. Callers hold n.mu.
func (n *NIC) acceptedLocked(queue int, ts int64) {
	if n.flight != nil && n.fullSince[queue] != 0 {
		n.flight.Note(queue, metrics.FlightNICRingRecover, int64(n.fullDrops[queue]), ts-n.fullSince[queue])
		n.fullSince[queue], n.fullDrops[queue] = 0, 0
	}
}

// QueueFor reports the queue RSS would choose for a flow key, letting the
// engine predict stream placement (e.g. for load-balance decisions).
func (n *NIC) QueueFor(key pkt.FlowKey) int {
	return n.rss.queue(&key, n.cfg.Queues)
}

// Poll removes and returns the next frame of queue q.
func (n *NIC) Poll(q int) (Frame, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.rings[q].pop()
}

// QueueLen returns the current occupancy of queue q.
func (n *NIC) QueueLen(q int) int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.rings[q].n
}

// AddFilter installs an FDIR filter. If the perfect table is full, the
// filter set with the earliest deadline is evicted first (the paper's
// policy: a filter with a small timeout does not correspond to a long-lived
// stream); the evicted key is returned so the caller can reconcile its
// bookkeeping. Filter churn is driven by the engine's cutoff/priority
// decisions, and only the owning engine goroutine reconciles evictions
// against its stream table, so installation is engine-only.
//
//scap:onlyrole engine
func (n *NIC) AddFilter(spec FilterSpec) (evicted pkt.FlowKey, didEvict bool, err error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	s := spec
	err = n.filters.add(&s)
	if err == nil || spec.Signature {
		return pkt.FlowKey{}, false, err
	}
	evicted, didEvict = n.filters.evictEarliest()
	if !didEvict {
		return pkt.FlowKey{}, false, err
	}
	if n.lb != nil {
		n.lb.filtersGone(n, evicted)
	}
	if err := n.filters.add(&s); err != nil {
		return evicted, true, fmt.Errorf("nic: add after eviction: %w", err)
	}
	return evicted, true, nil
}

// RemoveFilters removes all filters for key and reports how many were
// removed. Engine-only, like AddFilter: removal mirrors the engine's
// stream-table bookkeeping.
//
//scap:onlyrole engine
func (n *NIC) RemoveFilters(key pkt.FlowKey, signature bool) int {
	n.mu.Lock()
	defer n.mu.Unlock()
	removed := n.filters.removeKey(key, signature)
	if removed > 0 && !signature && n.lb != nil {
		n.lb.filtersGone(n, key)
	}
	return removed
}

// FilterCount returns the number of installed (perfect, signature) filters.
func (n *NIC) FilterCount() (perfect, signature int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.filters.nPerfect, n.filters.nSignature
}

// Stats returns a snapshot of the NIC counters.
func (n *NIC) Stats() Stats {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.stats
}

// PublishMetrics registers the NIC counters in reg as func-backed
// instruments (each read takes the NIC mutex briefly, like Stats) and
// routes ring-full episodes to the registry's event log. Call once per
// registry, before capture starts.
func (n *NIC) PublishMetrics(reg *metrics.Registry) {
	field := func(f func(*Stats) uint64) func() uint64 {
		return func() uint64 {
			n.mu.Lock()
			defer n.mu.Unlock()
			return f(&n.stats)
		}
	}
	reg.NewCounterFunc(metrics.Desc{Name: "nic_frames_total", Help: "frames offered to the NIC", Unit: "frames", Paper: "Fig. 7 offered load"},
		field(func(s *Stats) uint64 { return s.Received }))
	reg.NewCounterFunc(metrics.Desc{Name: "nic_dropped_filter_total", Help: "frames dropped by FDIR drop filters", Unit: "frames", Paper: "§5.5 subzero copy", Family: "drops", Cause: "fdir"},
		field(func(s *Stats) uint64 { return s.DroppedFilter }))
	reg.NewCounterFuncPerCore(metrics.Desc{Name: "nic_dropped_ring_total", Help: "frames lost to full receive rings", Unit: "frames", Paper: "Fig. 7 dropped at NIC", Family: "drops", Cause: "ring_full"},
		field(func(s *Stats) uint64 { return s.DroppedRing }),
		func(dst []uint64) []uint64 {
			n.mu.Lock()
			defer n.mu.Unlock()
			return append(dst, n.ringDrops...)
		})
	reg.NewCounterFunc(metrics.Desc{Name: "nic_redirected_total", Help: "frames steered by load-balancing filters", Unit: "frames", Paper: "§2.4 dynamic balance"},
		field(func(s *Stats) uint64 { return s.Redirected }))
	reg.NewCounterFunc(metrics.Desc{Name: "nic_decode_failures_total", Help: "undecodable frames delivered nowhere", Unit: "frames", Paper: ""},
		field(func(s *Stats) uint64 { return s.DecodeFailures }))
	n.mu.Lock()
	n.flight = reg.Flight()
	n.mu.Unlock()
}

// Highwater returns the maximum occupancy queue q has reached.
func (n *NIC) Highwater(q int) int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.highwater[q]
}
