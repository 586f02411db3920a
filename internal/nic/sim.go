package nic

import (
	"sync"
)

// Sim is the simulated capture backend: the model 82599 NIC plus the
// per-queue delivery channels that stand in for the paper's softirq→
// kernel-thread handoff. Frames enter through the injection surface — a
// burst is steered into per-queue batches by ReceiveBatch, each batch
// goes to its kernel goroutine with Deliver and comes back through
// Recycle — and a slow kernel goroutine backpressures the injector
// through the bounded channel instead of dropping.
//
// Concurrency: any number of injector goroutines may call the embedded
// NIC's entry points, ReceiveBatch and Deliver concurrently (the NIC mutex
// serializes steering; the channels serialize delivery). Close must not run
// concurrently with Deliver — the capture layer stops injecting before it
// tears the backend down, mirroring the old frameCh contract.
//
//scap:shared
type Sim struct {
	// NIC is the embedded controller model; its RSS, FDIR, defragmentation,
	// and balancing behavior is exactly the pre-backend-split NIC.
	*NIC
	ch   []chan []Frame
	done chan struct{}
	once sync.Once
	// free holds emptied fan-out batches between Recycle and the next
	// ReceiveBatch, one slot for every batch the delivery channels can hold:
	// a backlog that builds and drains swings the list by up to that many,
	// and a shorter list would drop batches on the way down only to allocate
	// them again on the way up. The same slices circulate, so a burst
	// allocates nothing once the socket has seen its deepest backlog.
	free chan []Frame
}

// NewSim builds the simulated backend around a model NIC with cfg.
func NewSim(cfg Config) *Sim {
	n := New(cfg)
	s := &Sim{NIC: n, done: make(chan struct{}), free: make(chan []Frame, backendBatchCap*n.cfg.Queues)}
	s.ch = make([]chan []Frame, n.cfg.Queues)
	for q := range s.ch {
		s.ch[q] = make(chan []Frame, backendBatchCap)
	}
	return s
}

// Open activates the backend. The simulated NIC has no source goroutines —
// injectors push frames — so Open is a no-op.
func (s *Sim) Open() error { return nil }

// Batches returns queue q's delivery channel.
func (s *Sim) Batches(q int) <-chan []Frame { return s.ch[q] }

// Done is closed when Close has shut every delivery channel.
func (s *Sim) Done() <-chan struct{} { return s.done }

// ReceiveBatch steers a burst under one acquisition of the NIC mutex and
// appends each surviving frame to out[queue], with the ingest stamp the
// caller put on it; out has one entry per queue and a nil entry gets a
// recycled batch on its first frame. The frames skip the NIC's receive
// rings: a ring only ever held a frame between ReceiveAt and the
// injector's own Poll, so on this path it modelled nothing. Every other
// effect of ReceiveAt is kept — counters, defragmentation, filters, the
// balancer, and the end of a ring-full episode. The mutex is held for the
// whole of frames, so the caller bounds the burst to bound how long an
// engine's AddFilter can wait.
//
//scap:hotpath
func (s *Sim) ReceiveBatch(frames []Frame, out [][]Frame) {
	n := s.NIC
	//scaplint:ignore hotpathblock audited: the simulated NIC is one mutex-guarded device standing in for hardware (steering, defrag, filter table, stats), taken once per burst of at most injectBatchSize frames; injectors still share it (ROADMAP item 2)
	n.mu.Lock()
	for i := range frames {
		f := &frames[i]
		queue, data := n.steerLocked(f.Data, f.TS)
		if queue < 0 {
			continue
		}
		n.acceptedLocked(queue, f.TS)
		if out[queue] == nil {
			out[queue] = s.batch(len(frames))
		}
		//scaplint:ignore hotpathalloc recycled batches keep the capacity they grew to, so the append reallocates only until a queue's batch has seen its largest burst
		out[queue] = append(out[queue], Frame{Data: data, TS: f.TS, Ingest: f.Ingest})
	}
	n.mu.Unlock()
}

// batch returns an empty fan-out batch, recycled when one is free; a new
// one has room for a whole burst, so it never grows while it is filled.
func (s *Sim) batch(burst int) []Frame {
	select {
	case b := <-s.free:
		return b
	default:
		return make([]Frame, 0, burst)
	}
}

// Recycle returns a delivered batch once its consumer is done with it. The
// frames are cleared first, so the list pins no packet bytes; the caller
// must not touch the slice afterwards.
func (s *Sim) Recycle(batch []Frame) {
	clear(batch)
	select {
	case s.free <- batch[:0]:
	default:
	}
}

// Deliver hands one queue's frame batch to its kernel goroutine. The send
// is the sim backend's backpressure point: when the consumer falls behind
// by more than the channel depth, the injector parks, like the paper's
// replay blocking on a saturated capture thread.
func (s *Sim) Deliver(q int, batch []Frame) {
	//scaplint:ignore hotpathblock intentional backpressure: when a kernel goroutine falls behind, the delivery send parks the injector instead of growing an unbounded backlog
	s.ch[q] <- batch
}

// Close shuts every delivery channel so the kernel goroutines drain and
// exit. Idempotent; must not race Deliver (stop injecting first).
func (s *Sim) Close() error {
	s.once.Do(func() {
		for _, ch := range s.ch {
			close(ch)
		}
		close(s.done)
	})
	return nil
}

// Capabilities reports the modeled 82599 facilities: hardware RSS and
// FDIR tables at the configured capacities, hardware timestamps, and the
// §2.4 dynamic balancer when enabled.
func (n *NIC) Capabilities() Capabilities {
	n.mu.Lock()
	defer n.mu.Unlock()
	return Capabilities{
		RSSQueues:        n.cfg.Queues,
		PerfectFilters:   n.cfg.PerfectFilterCap,
		SignatureFilters: n.cfg.SignatureFilterCap,
		HWFilters:        true,
		HWTimestamps:     true,
		DynamicBalance:   n.lb != nil,
	}
}
