package nic

import (
	"sync"

	"scap/internal/metrics"
	"scap/internal/pkt"
)

// swSteer is the software stand-in for the 82599's steering silicon, used
// by backends without hardware tables (pcap replay, AF_PACKET): a Toeplitz
// RSS hash picks the queue and a capacity-bounded filter table emulates
// FDIR drop filters on the delivery path. Unlike the hardware model, a
// matching frame here has already been copied once — the shim saves
// stream-memory and pipeline work, not the copy — so its drops are
// attributed to cause "swfilter" rather than "fdir".
//
// Queue-steering filters (ActionQueue) are accepted but ignored: software
// backends have no rebalancing fabric, and Capabilities advertises
// DynamicBalance=false so the engine never installs them.
//
// A single mutex serializes route (backend source goroutines) against
// filter installs (engine goroutines) and Stats readers, mirroring the
// model NIC's register-interface locking.
//
//scap:shared
type swSteer struct {
	mu sync.Mutex
	// rss, queues are immutable after newSwSteer.
	rss    *rssTable
	queues int
	// filters is guarded by mu.
	filters *filterTable
	// stats is guarded by mu.
	stats Stats
	// scratch is guarded by mu.
	scratch pkt.Packet
}

// swFilterCap bounds the software perfect-filter table. The shim is not
// constrained by TCAM silicon, but an unbounded table would hide the
// engine's eviction logic; size it like the hardware default.
const swFilterCap = DefaultPerfectFilters

func newSwSteer(queues int) *swSteer {
	if queues <= 0 {
		queues = 1
	}
	key := SymmetricRSSKey(0x6d5a)
	return &swSteer{
		rss:     newRSSTable(&key),
		queues:  queues,
		filters: newFilterTable(swFilterCap, DefaultSignatureFilters),
	}
}

// route decodes one frame and answers where it goes: the destination
// queue, or ok=false when the frame is consumed here (undecodable, or
// matched by a software drop filter). Counters are updated under the lock.
func (s *swSteer) route(data []byte) (queue int, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats.Received++
	p := &s.scratch
	if err := pkt.Decode(data, p); err != nil {
		s.stats.DecodeFailures++
		return 0, false
	}
	if f := s.filters.lookup(p); f != nil && f.Action == ActionDrop {
		s.stats.DroppedFilter++
		return 0, false
	}
	return s.rss.queue(&p.Key, s.queues), true
}

// dropRing charges one frame lost to a full delivery ring on queue q.
func (s *swSteer) dropRing() {
	s.mu.Lock()
	s.stats.DroppedRing++
	s.mu.Unlock()
}

// addRing folds externally counted ring losses (the kernel's tp_drops on
// AF_PACKET) into the aggregate; delta may be zero.
func (s *swSteer) addRing(delta uint64) {
	if delta == 0 {
		return
	}
	s.mu.Lock()
	s.stats.DroppedRing += delta
	s.mu.Unlock()
}

// addFilter installs a software filter with the model NIC's eviction
// contract: a full perfect table evicts the earliest-deadline filter set
// and retries, returning the evicted key for the engine to reconcile.
func (s *swSteer) addFilter(spec FilterSpec) (evicted pkt.FlowKey, didEvict bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sp := spec
	err = s.filters.add(&sp)
	if err == nil || spec.Signature {
		return pkt.FlowKey{}, false, err
	}
	evicted, didEvict = s.filters.evictEarliest()
	if !didEvict {
		return pkt.FlowKey{}, false, err
	}
	if err := s.filters.add(&sp); err != nil {
		return evicted, true, err
	}
	return evicted, true, nil
}

// removeFilters removes every filter for key and reports how many.
func (s *swSteer) removeFilters(key pkt.FlowKey, signature bool) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.filters.removeKey(key, signature)
}

// filterCount returns the installed (perfect, signature) filter counts.
func (s *swSteer) filterCount() (perfect, signature int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.filters.nPerfect, s.filters.nSignature
}

// snapshot returns the counters.
func (s *swSteer) snapshot() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// capabilities describes the shim: software RSS over queues, software
// filter tables, no hardware timestamps, no dynamic balancing.
func (s *swSteer) capabilities() Capabilities {
	return Capabilities{
		RSSQueues:        s.queues,
		PerfectFilters:   swFilterCap,
		SignatureFilters: DefaultSignatureFilters,
	}
}

// publishSwMetrics registers the shared backend counters for a software
// backend under the same metric names the model NIC uses — the Stats view,
// scaptop, and the control plane's drops table read these names on every
// backend — with filter drops attributed to cause "swfilter".
func publishSwMetrics(reg *metrics.Registry, s *swSteer, ringPerQueue func(dst []uint64) []uint64) {
	field := func(f func(*Stats) uint64) func() uint64 {
		return func() uint64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return f(&s.stats)
		}
	}
	reg.NewCounterFunc(metrics.Desc{Name: "nic_frames_total", Help: "frames offered to the capture backend", Unit: "frames", Paper: "Fig. 7 offered load"},
		field(func(st *Stats) uint64 { return st.Received }))
	reg.NewCounterFunc(metrics.Desc{Name: "nic_dropped_filter_total", Help: "frames dropped by the software filter shim", Unit: "frames", Paper: "§5.5 subzero copy (software emulation)", Family: "drops", Cause: "swfilter"},
		field(func(st *Stats) uint64 { return st.DroppedFilter }))
	reg.NewCounterFuncPerCore(metrics.Desc{Name: "nic_dropped_ring_total", Help: "frames lost to full receive rings", Unit: "frames", Paper: "Fig. 7 dropped at NIC", Family: "drops", Cause: "ring_full"},
		field(func(st *Stats) uint64 { return st.DroppedRing }),
		ringPerQueue)
	reg.NewCounterFunc(metrics.Desc{Name: "nic_redirected_total", Help: "frames steered by load-balancing filters (always zero on software backends)", Unit: "frames", Paper: "§2.4 dynamic balance"},
		field(func(st *Stats) uint64 { return st.Redirected }))
	reg.NewCounterFunc(metrics.Desc{Name: "nic_decode_failures_total", Help: "undecodable frames delivered nowhere", Unit: "frames", Paper: ""},
		field(func(st *Stats) uint64 { return st.DecodeFailures }))
}
