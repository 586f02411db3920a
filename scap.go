// Package scap is a stream-oriented network traffic capture and analysis
// library: a Go reproduction of the Scap framework (Papadogiannakis,
// Polychronakis, Markatos — "Scap: Stream-Oriented Network Traffic Capture
// and Analysis for High-Speed Networks", IMC 2013).
//
// Scap elevates the transport-layer stream to a first-class captured
// object: applications register callbacks for stream creation, data
// availability, and termination, and receive reassembled TCP/UDP stream
// chunks instead of raw packets. Flow tracking, TCP reassembly, per-stream
// cutoffs, prioritized packet loss, and NIC flow-director filter
// management all happen in the capture core ("kernel path"), before data
// is handed to the application — the paper's central design point.
//
// The original system is a Linux kernel module driving an Intel 82599.
// This library reproduces the full architecture in user-space Go: the
// kernel path runs on per-core capture goroutines fed by a simulated
// multi-queue NIC (internal/nic) with RSS and FDIR filters, and frames
// enter the system from pcap files, synthetic workload generators
// (internal/trace), or direct injection.
//
// A minimal flow-statistics exporter (paper §3.3.1):
//
//	h, _ := scap.Create(scap.Config{ReassemblyMode: scap.TCPFast})
//	h.SetCutoff(0) // statistics only, discard all payload
//	h.DispatchTermination(func(sd *scap.Stream) {
//		fmt.Println(sd.Key(), sd.Stats().Bytes, "bytes")
//	})
//	h.StartCapture()
//	h.ReplayPcap("trace.pcap")
//	h.Close()
package scap

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"scap/internal/bpf"
	"scap/internal/core"
	"scap/internal/ctlplane"
	"scap/internal/event"
	"scap/internal/mem"
	"scap/internal/metrics"
	"scap/internal/nic"
	"scap/internal/reassembly"
	"scap/internal/streamscope"
)

// ReassemblyMode selects the TCP reassembly discipline.
type ReassemblyMode = reassembly.Mode

// Reassembly modes (paper §2.3).
const (
	// TCPStrict reassembles strictly in sequence with full normalization
	// (IP defragmentation, no write-through on holes).
	TCPStrict = reassembly.ModeStrict
	// TCPFast is best-effort: resilient to loss, flags holes.
	TCPFast = reassembly.ModeFast
)

// OverlapPolicy selects target-based overlapping-segment resolution.
type OverlapPolicy = reassembly.Policy

// Target-based reassembly policies.
const (
	PolicyFirst   = reassembly.PolicyFirst
	PolicyLast    = reassembly.PolicyLast
	PolicyBSD     = reassembly.PolicyBSD
	PolicyLinux   = reassembly.PolicyLinux
	PolicyWindows = reassembly.PolicyWindows
	PolicySolaris = reassembly.PolicySolaris
)

// CutoffUnlimited disables the stream-size cutoff.
const CutoffUnlimited = core.CutoffUnlimited

// Parameter names for SetParameter (scap_set_parameter).
type Parameter uint8

const (
	// ParamInactivityTimeout (ns) expires idle streams.
	ParamInactivityTimeout Parameter = iota
	// ParamChunkSize (bytes) sets the default chunk size.
	ParamChunkSize
	// ParamOverlapSize (bytes) carries the tail of each chunk into the
	// next one, for patterns spanning chunk boundaries.
	ParamOverlapSize
	// ParamFlushTimeout (ns) delivers partial chunks after this delay.
	ParamFlushTimeout
	// ParamBaseThreshold (per-mille of memory) sets the PPL base
	// threshold.
	ParamBaseThreshold
	// ParamOverloadCutoff (bytes) trims streams under memory pressure.
	ParamOverloadCutoff
	// ParamPriorities sets the number of PPL priority levels in use.
	ParamPriorities
)

// Config configures a capture socket at creation (scap_create).
type Config struct {
	// MemorySize is the stream-memory budget in bytes (default 1 GiB). It
	// is a physical bound: the budget is carved into one arena of
	// fixed-size blocks (sized from the chunk size plus overlap headroom)
	// that hold every chunk under construction and in flight; when no block
	// is free, payload is shed like a DropNoMemory PPL decision.
	MemorySize int64
	// ReassemblyMode selects strict or fast TCP reassembly.
	ReassemblyMode ReassemblyMode
	// NeedPkts additionally delivers per-packet records with each chunk
	// (scap_next_stream_packet).
	NeedPkts bool
	// Queues is the number of NIC receive queues (default: GOMAXPROCS).
	Queues int
	// UseFDIR enables subzero copy: NIC drop filters for cutoff streams.
	UseFDIR bool
	// DefaultPolicy is the overlap policy when no PolicyRule matches.
	DefaultPolicy OverlapPolicy
	// Sketch enables the per-core priority-aware sketch front-end: flows
	// past their cutoff (and flows the socket filter rejects) are answered
	// from a count-min summary instead of holding a stream record, so the
	// flow table tracks only the flows that still need per-stream state.
	Sketch SketchConfig
	// Control enables the adaptive overload control plane: a feedback
	// controller that tightens the effective stream cutoff under memory
	// pressure, gates sketch→NIC drop filters to overload episodes, and
	// retargets PPL watermarks from observed per-priority byte shares.
	Control ControlConfig
	// Backend selects the capture transport built at StartCapture. The
	// zero value is the simulated NIC, which the injection APIs
	// (InjectFrame, InjectBatch, ReplayPcap, ReplaySource) feed.
	Backend BackendConfig
	// Streams configures the sampled per-stream lifecycle journals served
	// at /debug/streams. The zero value enables them at the default
	// 1-in-64 sampling stride.
	Streams StreamsConfig
	// History configures the bounded ring of periodic metrics snapshots
	// served at /debug/history. The zero value enables it at one sample
	// per second, three minutes retained.
	History HistoryConfig
}

// StreamsConfig configures the sampled per-stream lifecycle journals
// (/debug/streams): every Nth new stream — plus every stream that hits an
// anomaly (cutoff clamp, arena-exhausted fallback, reassembly gap/overlap,
// PPL payload drop, FDIR install) — gets a fixed-size, alloc-free journal
// of lifecycle events. Under PPL pressure the sampling stride adaptively
// backs off; anomalous streams are journaled regardless of the stride.
type StreamsConfig struct {
	// Disabled turns stream journaling off entirely.
	Disabled bool
	// SampleEvery is the base sampling stride: one in SampleEvery new
	// streams gets a journal (rounded up to a power of two; 1 journals
	// every new stream; 0 selects the default, 64).
	SampleEvery int
	// JournalsPerCore bounds each core's journal pool (power of two;
	// 0 selects the default, 128). Older journals are rebound
	// oldest-first when the pool wraps.
	JournalsPerCore int
}

// HistoryConfig configures the metrics history ring (/debug/history).
type HistoryConfig struct {
	// Disabled turns the history ring off.
	Disabled bool
	// Interval is the sampling cadence (0 selects the default, 1s).
	Interval time.Duration
	// Depth is the ring capacity in samples (0 selects the default, 180).
	Depth int
}

// BackendConfig selects StartCapture's frame transport. The zero value is
// the simulated 82599 NIC; setting PcapPath selects the file-backed pcap
// replay backend; setting Iface selects the live Linux AF_PACKET backend
// (GOOS=linux, built with -tags live). At most one of PcapPath and Iface
// may be set. Source-driven backends do not accept injected frames — the
// injection APIs return ErrNotInjectable — and deliver on their own: use
// WaitBackend to block until a replay file is exhausted.
type BackendConfig struct {
	// PcapPath replays this classic-pcap trace file through a software
	// RSS/filter shim and per-queue bounded rings (the PF_PACKET loss
	// model), then closes the backend's Done channel at EOF.
	PcapPath string
	// PcapPasses replays the file this many times with monotonic
	// timestamps; values below 1 mean one pass.
	PcapPasses int
	// RingBytes bounds each pcap-replay staging ring in bytes (default
	// 512 MB split across queues).
	RingBytes int
	// Snaplen truncates frames on the pcap replay and AF_PACKET backends
	// (0 = full frames).
	Snaplen int
	// Iface is the interface the AF_PACKET backend captures from.
	Iface string
	// BlockBytes and Blocks size each AF_PACKET TPACKET_V3 ring
	// (per-queue ring memory is BlockBytes×Blocks; defaults 1 MB × 64).
	BlockBytes int
	Blocks     int
	// FanoutID identifies the AF_PACKET fanout group (0 derives one from
	// the process ID).
	FanoutID uint16
}

// SketchConfig configures the sketch front-end (see core.SketchConfig).
type SketchConfig = core.SketchConfig

// Handler is a stream event callback. The *Stream argument is only valid
// for the duration of the call.
type Handler func(sd *Stream)

// Errors returned by the public API.
var (
	ErrStarted    = errors.New("scap: capture already started")
	ErrNotStarted = errors.New("scap: capture not started")
	ErrClosed     = errors.New("scap: socket closed")
	ErrStale      = errors.New("scap: stream no longer exists")
	// ErrNotInjectable is returned by the injection APIs when the socket
	// runs a source-driven backend (pcap replay, AF_PACKET): frames come
	// from the backend's own source, not from the caller.
	ErrNotInjectable = errors.New("scap: backend does not accept injected frames")
)

// Handle is an Scap socket (scap_t). Configure it, register dispatch
// callbacks, call StartCapture, then feed frames via ReplayPcap,
// ReplaySource, or InjectFrame.
type Handle struct {
	cfg          Config
	engCfg       core.Config
	workers      int
	started      bool
	closed       bool
	basePerMille int64
	overload     int64
	prios        int

	mm *mem.Manager
	// backend is the capture transport selected by Config.Backend; sim is
	// the same backend downcast when it is the simulated NIC (nil
	// otherwise), for the injection paths.
	backend nic.Backend
	sim     *nic.Sim
	engines []*core.Engine
	queues  []*event.Queue

	// reg is the socket's metrics registry (created with the Handle); em is
	// the engine instrument bundle registered in it, and workerBatchH
	// tracks worker drain batch sizes. stageWorkerH and callbackH are the
	// worker-side stage-latency histograms (event-ring publish to worker
	// pop, and the interval between callback completions). final freezes the last
	// statistics snapshot at Close, so GetStats never races engine teardown.
	reg          *metrics.Registry
	em           *core.Metrics
	workerBatchH *metrics.Histogram
	stageWorkerH *metrics.Histogram
	callbackH    *metrics.Histogram
	final        *Stats

	// ctl is the adaptive overload controller, nil unless
	// Config.Control.Enabled. Started after the engines exist, stopped
	// before the capture path tears down.
	ctl *ctlplane.Controller

	// scope holds the sampled per-stream lifecycle journals (nil when
	// Config.Streams.Disabled); each engine writes only its own core's
	// pool. hist is the periodic metrics-history ring (nil when
	// Config.History.Disabled), started with capture and stopped at Close.
	scope *streamscope.Scope
	hist  *metrics.History

	onCreate Handler
	onData   Handler
	onClose  Handler
	// apps, when non-empty, replace the socket-level callbacks (§5.6
	// multi-application sharing).
	apps []*App

	capture *captureState
}

// Create opens a capture socket.
func Create(cfg Config) (*Handle, error) {
	if cfg.MemorySize <= 0 {
		cfg.MemorySize = 1 << 30
	}
	if cfg.Queues <= 0 {
		cfg.Queues = runtime.GOMAXPROCS(0)
	}
	h := &Handle{
		cfg:     cfg,
		workers: cfg.Queues,
		prios:   1,
		engCfg: core.Config{
			Cutoff:        CutoffUnlimited,
			Mode:          cfg.ReassemblyMode,
			DefaultPolicy: cfg.DefaultPolicy,
			NeedPkts:      cfg.NeedPkts,
			UseFDIR:       cfg.UseFDIR,
			Sketch:        cfg.Sketch,
		},
	}
	h.reg = metrics.NewRegistry(cfg.Queues)
	h.em = core.NewMetrics(h.reg)
	h.workerBatchH = h.reg.NewHistogram(metrics.Desc{
		Name: "worker_batch_size",
		Help: "events a worker drained from a ring per wakeup",
		Unit: "events",
	}, 7)
	h.stageWorkerH = h.reg.NewHistogram(metrics.Desc{
		Name: "stage_ring_worker_ns",
		Help: "latency from event-ring publish to worker dispatch",
		Unit: "ns",
	}, 38)
	h.callbackH = h.reg.NewHistogram(metrics.Desc{
		Name: "callback_ns",
		Help: "interval between consecutive callback completions on a worker (the callback plus its dispatch; the batch's pop stamp opens the first)",
		Unit: "ns",
	}, 38)
	if !cfg.Streams.Disabled {
		nowFn := metrics.Nanotime
		h.scope = streamscope.New(streamscope.Options{
			Cores:           cfg.Queues,
			JournalsPerCore: cfg.Streams.JournalsPerCore,
			SampleEvery:     cfg.Streams.SampleEvery,
			Now:             &nowFn,
		})
		scope := h.scope
		h.reg.NewCounterFunc(metrics.Desc{
			Name: "streams_sampled_total",
			Help: "streams picked for a lifecycle journal by the sampler",
			Unit: "streams",
		}, scope.Sampled)
		h.reg.NewCounterFunc(metrics.Desc{
			Name: "streams_anomaly_total",
			Help: "journaled streams promoted or flagged by an anomaly",
			Unit: "streams",
		}, scope.Anomalies)
		h.reg.NewGaugeFunc(metrics.Desc{
			Name: "streamscope_sample_every",
			Help: "current journal sampling stride (1 = every new stream)",
			Unit: "streams",
		}, func() int64 { return int64(scope.SampleEvery()) })
	}
	if !cfg.History.Disabled {
		h.hist = metrics.NewHistory(h.reg, cfg.History.Interval, cfg.History.Depth)
	}
	return h, nil
}

// SetFilter applies a BPF-style filter expression; streams not matching it
// are discarded inside the capture core (scap_set_filter).
func (h *Handle) SetFilter(expr string) error {
	if h.started {
		return ErrStarted
	}
	f, err := bpf.Parse(expr)
	if err != nil {
		return err
	}
	h.engCfg.Filter = f
	return nil
}

// SetCutoff sets the default per-stream cutoff in bytes; 0 discards all
// stream data (statistics only) and CutoffUnlimited disables the cutoff
// (scap_set_cutoff).
func (h *Handle) SetCutoff(cutoff int64) error {
	if h.started {
		return ErrStarted
	}
	h.engCfg.Cutoff = cutoff
	return nil
}

// Direction selects a traffic direction for AddCutoffDirection.
type Direction uint8

// Stream directions relative to the connection initiator.
const (
	DirClient Direction = 0
	DirServer Direction = 1
)

// String names the direction ("client" or "server") for logs and errors.
func (d Direction) String() string {
	if d == DirClient {
		return "client"
	}
	return "server"
}

// AddCutoffDirection sets a different cutoff for one direction
// (scap_add_cutoff_direction).
func (h *Handle) AddCutoffDirection(cutoff int64, dir Direction) error {
	if h.started {
		return ErrStarted
	}
	switch dir {
	case DirClient:
		h.engCfg.CutoffClient, h.engCfg.CutoffClientSet = cutoff, true
	case DirServer:
		h.engCfg.CutoffServer, h.engCfg.CutoffServerSet = cutoff, true
	default:
		return fmt.Errorf("scap: bad direction %d", dir)
	}
	return nil
}

// AddCutoffClass sets a cutoff for the subset of traffic matching a filter
// expression (scap_add_cutoff_class). Classes are evaluated in the order
// added; the first match wins.
func (h *Handle) AddCutoffClass(cutoff int64, expr string) error {
	if h.started {
		return ErrStarted
	}
	f, err := bpf.Parse(expr)
	if err != nil {
		return err
	}
	h.engCfg.CutoffClasses = append(h.engCfg.CutoffClasses, core.CutoffClass{Filter: f, Cutoff: cutoff})
	return nil
}

// AddPriorityClass assigns an initial PPL priority to streams matching a
// filter expression, resolved in the capture core at stream creation —
// guaranteeing protection from the first payload byte, unlike a
// creation-callback SetPriority, which is applied asynchronously.
func (h *Handle) AddPriorityClass(priority int, expr string) error {
	if h.started {
		return ErrStarted
	}
	if priority < 0 {
		return fmt.Errorf("scap: bad priority %d", priority)
	}
	f, err := bpf.Parse(expr)
	if err != nil {
		return err
	}
	h.engCfg.PriorityClasses = append(h.engCfg.PriorityClasses, core.PriorityClass{Filter: f, Priority: priority})
	return nil
}

// AddPolicyRule assigns a target-based reassembly policy to destinations
// within a CIDR prefix (Snort-style target-based reassembly).
func (h *Handle) AddPolicyRule(prefix string, policy OverlapPolicy) error {
	if h.started {
		return ErrStarted
	}
	p, err := parsePrefix(prefix)
	if err != nil {
		return err
	}
	h.engCfg.PolicyRules = append(h.engCfg.PolicyRules, core.PolicyRule{Prefix: p, Policy: policy})
	return nil
}

// SetWorkerThreads sets how many worker goroutines process stream events
// (scap_set_worker_threads). Default: one per queue.
func (h *Handle) SetWorkerThreads(n int) error {
	if h.started {
		return ErrStarted
	}
	if n <= 0 {
		return fmt.Errorf("scap: bad worker count %d", n)
	}
	h.workers = n
	return nil
}

// SetParameter changes a socket default (scap_set_parameter).
func (h *Handle) SetParameter(p Parameter, value int64) error {
	if h.started {
		return ErrStarted
	}
	switch p {
	case ParamInactivityTimeout:
		h.engCfg.InactivityTimeout = value
	case ParamChunkSize:
		h.engCfg.ChunkSize = int(value)
	case ParamOverlapSize:
		h.engCfg.OverlapSize = int(value)
	case ParamFlushTimeout:
		h.engCfg.FlushTimeout = value
	case ParamBaseThreshold:
		if value <= 0 || value > 1000 {
			return fmt.Errorf("scap: base threshold %d out of (0,1000]", value)
		}
		h.basePerMille = value
	case ParamOverloadCutoff:
		h.overload = value
	case ParamPriorities:
		if value < 1 {
			return fmt.Errorf("scap: priorities %d < 1", value)
		}
		h.prios = int(value)
	default:
		return fmt.Errorf("scap: unknown parameter %d", p)
	}
	return nil
}

// DispatchCreation registers the stream-creation callback
// (scap_dispatch_creation).
func (h *Handle) DispatchCreation(fn Handler) { h.onCreate = fn }

// DispatchData registers the stream-data callback (scap_dispatch_data).
func (h *Handle) DispatchData(fn Handler) { h.onData = fn }

// DispatchTermination registers the stream-termination callback
// (scap_dispatch_termination).
func (h *Handle) DispatchTermination(fn Handler) { h.onClose = fn }

// StartCapture builds the kernel path and worker threads and begins
// processing (scap_start_capture). Frames are then fed with ReplayPcap,
// ReplaySource, or InjectFrame.
func (h *Handle) StartCapture() error {
	if h.closed {
		return ErrClosed
	}
	if h.started {
		return ErrStarted
	}
	if err := h.resolveApps(); err != nil {
		return err
	}
	h.engCfg.Priorities = h.prios
	base := 0.0
	if h.basePerMille > 0 {
		base = float64(h.basePerMille) / 1000
	}
	h.mm = mem.New(mem.Config{
		Size:           h.cfg.MemorySize,
		BaseThreshold:  base,
		Priorities:     h.prios,
		OverloadCutoff: h.overload,
		BlockSize:      h.engCfg.ArenaBlockSize(),
		Cores:          h.cfg.Queues,
	})
	backend, err := h.newBackend()
	if err != nil {
		h.mm.Close()
		h.mm = nil
		return err
	}
	h.backend = backend
	if sim, ok := backend.(*nic.Sim); ok {
		h.sim = sim
	}
	h.mm.PublishMetrics(h.reg)
	h.backend.PublishMetrics(h.reg)
	rng := rand.New(rand.NewSource(rand.Int63()))
	for q := 0; q < h.cfg.Queues; q++ {
		eq := event.NewQueue(0)
		h.queues = append(h.queues, eq)
		h.engines = append(h.engines, core.NewEngine(core.Options{
			Config:  h.engCfg,
			Mem:     h.mm,
			NIC:     h.backend,
			Queue:   eq,
			CoreID:  q,
			Rand:    rng,
			Metrics: h.em,
			Scope:   h.scope,
		}))
	}
	h.capture = newCaptureState(h)
	h.capture.start()
	// Open after the kernel goroutines are consuming: a fast source can
	// start delivering immediately and the batch channels bound the
	// run-ahead either way.
	if err := h.backend.Open(); err != nil {
		h.capture.stop()
		h.mm.Close()
		h.backend, h.sim, h.capture = nil, nil, nil
		h.engines, h.queues = nil, nil
		h.mm = nil
		return err
	}
	h.startControl()
	if h.hist != nil {
		// Started only on the success path: Stop (in Close) waits on the
		// sampling goroutine, which must therefore exist by then.
		h.hist.Start()
	}
	h.started = true
	return nil
}

// newBackend builds the capture transport Config.Backend selects, sized
// to the socket's queue count.
func (h *Handle) newBackend() (nic.Backend, error) {
	b := h.cfg.Backend
	switch {
	case b.PcapPath != "" && b.Iface != "":
		return nil, fmt.Errorf("scap: Backend.PcapPath and Backend.Iface are mutually exclusive")
	case b.PcapPath != "":
		return nic.NewPcapReplay(nic.PcapReplayConfig{
			Path:      b.PcapPath,
			Queues:    h.cfg.Queues,
			RingBytes: b.RingBytes,
			Snaplen:   b.Snaplen,
			Passes:    b.PcapPasses,
		}), nil
	case b.Iface != "":
		return nic.NewAFPacket(nic.AFPacketConfig{
			Iface:      b.Iface,
			Queues:     h.cfg.Queues,
			BlockBytes: b.BlockBytes,
			Blocks:     b.Blocks,
			Snaplen:    b.Snaplen,
			FanoutID:   b.FanoutID,
		})
	default:
		// Strict mode normalizes IP fragmentation before RSS steering, so
		// a flow's fragments and whole packets land on the same core;
		// dynamic balancing redirects streams away from overloaded queues
		// (§2.4).
		return nic.NewSim(nic.Config{
			Queues:         h.cfg.Queues,
			Defragment:     h.engCfg.Mode == reassembly.ModeStrict,
			DynamicBalance: true,
		}), nil
	}
}

// WaitBackend blocks until the capture backend has stopped delivering:
// for the pcap replay backend that is end-of-file (all passes), and the
// error it returns is any trace decode failure the reader hit. For the
// simulated and AF_PACKET backends delivery only stops at Close, so
// WaitBackend blocks until then.
func (h *Handle) WaitBackend() error {
	if !h.started {
		return ErrNotStarted
	}
	backend := h.backend
	<-backend.Done()
	if pr, ok := backend.(*nic.PcapReplay); ok {
		return pr.Err()
	}
	return nil
}

// Close flushes all streams, delivers final events, stops the workers, and
// releases the socket (scap_close). It is safe to call once. The final
// statistics are frozen just after the capture path stops, so GetStats
// keeps returning them after Close (see GetStats for the post-Close
// contract).
func (h *Handle) Close() error {
	if h.closed {
		return ErrClosed
	}
	h.closed = true
	if !h.started {
		return nil
	}
	if h.ctl != nil {
		// Stop the controller first so no actuation races teardown.
		h.ctl.Stop()
	}
	if h.hist != nil {
		h.hist.Stop()
	}
	h.capture.stop()
	h.mm.Close()
	st := h.statsFromRegistry()
	h.final = &st
	h.started = false
	return nil
}
