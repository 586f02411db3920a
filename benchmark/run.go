package main

import (
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"scap"
	"scap/internal/pkt"
)

const (
	satBatch   = 64  // frames per InjectBatch in the saturation phase
	pacedBatch = 256 // frames per InjectBatch in the paced phase
	// satLinkBps paces the saturation phase's virtual timestamps.
	satLinkBps = 10e9
	nShards    = 8
	// minPipelinedFrames is the shortest pass that may follow its
	// predecessor without a drain. retuple rewrites a frame in place one
	// pass after it was injected, which is safe only if the socket has let
	// go of it by then; the delivery channels can hold up to 2 × 256 batches
	// of frames. Shorter slices (-quick, tests) drain between passes.
	minPipelinedFrames = 1 << 17
	// eventWindow is how many events the saturation phase lets the socket
	// owe its callbacks before the injector waits: three quarters of one
	// core's event ring (event.DefaultQueueCap). Nothing inside the socket
	// pushes back on that ring — an engine that finds it full drops the
	// chunk — so a worker the host keeps off its core for a while would lose
	// data of flows that are many events per frame. See runner.throttle.
	eventWindow = 3 << 14
	// inactivityTimeout (virtual ns) ends datagram streams. Every pass brings
	// fresh datagram flows, each holding an arena block until it expires; at
	// the default 10 s the saturation phase's virtual clock (a pass is ~0.4 s)
	// would keep ~27 passes' worth alive and exhaust the arena. Two seconds
	// is still over a hundred times the longest gap inside any TCP flow.
	inactivityTimeout = int64(2e9)
)

var crcTab = crc32.MakeTable(crc32.Castagnoli)

// streamSum extends a stream checksum; it is independent of how the bytes
// are split across calls, so segments and chunks can be compared.
func streamSum(sum uint32, b []byte) uint32 { return crc32.Update(sum, crcTab, b) }

// shard is one worker's callback counters. Streams are sharded by the core
// number in the top bits of their ID, and each core's events are drained
// by one worker, so in practice a shard has a single writer; the counters
// are atomic so the totals stay right even if that layout changes.
type shard struct {
	created   atomic.Uint64
	chunks    atomic.Uint64
	terms     atomic.Uint64
	tcpBytes  atomic.Uint64
	udpBytes  atomic.Uint64
	closedTCP atomic.Uint64 // workload TCP directions terminated with StatusClosed
	probes    atomic.Uint64

	mu   sync.Mutex
	live map[uint64]*liveStream // guarded by mu; verification pass only
	_    [64]byte
}

type liveStream struct {
	n   uint64
	sum uint32
}

// totals is a snapshot of the callback counters summed over shards.
type totals struct {
	created, chunks, terms, tcpBytes, udpBytes, closedTCP, probes uint64
}

func (t totals) sub(o totals) totals {
	return totals{t.created - o.created, t.chunks - o.chunks, t.terms - o.terms,
		t.tcpBytes - o.tcpBytes, t.udpBytes - o.udpBytes, t.closedTCP - o.closedTCP, t.probes - o.probes}
}

func (t totals) add(o totals) totals {
	return totals{t.created + o.created, t.chunks + o.chunks, t.terms + o.terms,
		t.tcpBytes + o.tcpBytes, t.udpBytes + o.udpBytes, t.closedTCP + o.closedTCP, t.probes + o.probes}
}

func (t totals) events() uint64 { return t.created + t.chunks + t.terms }

// runner drives one socket through the benchmark phases.
type runner struct {
	w       workloadSpec
	frames  [][]byte // the slice injected each pass
	cliWord []uint8
	ref     *reference
	h       *scap.Handle
	tr      *tracer // nil unless tracing

	shards    [nShards]shard
	verifying atomic.Bool
	ver       verifier

	// holdBack makes satPass wait while stream memory is filling: the
	// verification pass's callbacks are slower than the engines and must
	// not push the socket into its overload path.
	holdBack bool
	// window is eventWindow in closed TCP directions; see throttle.
	window       uint64
	windowStalls int

	pass   uint16 // pass word of the next pass
	passes int    // complete passes injected so far
	vts    int64  // virtual clock, ns
	batch  []scap.RawFrame

	probeBuf  []byte
	probeDue  []int64
	probeLat  []int64
	nextProbe int

	// awaitTimeout bounds the wait for a phase's last terminations; a
	// phase that misses it is reported as lossy, not waited out.
	awaitTimeout time.Duration

	framesIn uint64 // frames handed to InjectBatch, probes included
	// lostBytes accumulates expected bytes the harness already knows are
	// lost (verification mismatches, a phase that timed out, an invalid
	// paced phase); failed counts the stream directions behind them.
	lostBytes uint64
	failed    int
	problems  []string
}

// verifier checks the verification pass stream by stream.
type verifier struct {
	ref     *reference
	skipUDP bool

	mu       sync.Mutex
	matched  map[pkt.FlowKey]struct{} // guarded by mu
	mismatch int                      // guarded by mu
	firstErr string                   // guarded by mu
}

func (r *runner) shardOf(sd *scap.Stream) *shard {
	return &r.shards[(sd.ID()>>48)&(nShards-1)]
}

func (r *runner) onCreate(sd *scap.Stream) { r.shardOf(sd).created.Add(1) }

func (r *runner) onData(sd *scap.Stream) {
	sh := r.shardOf(sd)
	if sd.Key().Proto == pkt.ProtoTCP {
		sh.tcpBytes.Add(uint64(len(sd.Data)))
	} else {
		sh.udpBytes.Add(uint64(len(sd.Data)))
	}
	sh.chunks.Add(1)
	if r.verifying.Load() {
		sh.mu.Lock()
		ls := sh.live[sd.ID()]
		if ls == nil {
			ls = &liveStream{}
			sh.live[sd.ID()] = ls
		}
		sh.mu.Unlock()
		// A stream's events are dispatched one at a time, so its running
		// sum needs no lock of its own.
		ls.sum = streamSum(ls.sum, sd.Data)
		ls.n += uint64(len(sd.Data))
	}
}

func (r *runner) onTerm(sd *scap.Stream) {
	sh := r.shardOf(sd)
	sh.terms.Add(1)
	key := sd.Key()
	if id := probeID(key); id >= 0 {
		if id < len(r.probeLat) {
			r.probeLat[id] = nowNS() - r.probeDue[id]
		}
		sh.probes.Add(1)
		return
	}
	if r.verifying.Load() {
		sh.mu.Lock()
		ls := sh.live[sd.ID()]
		delete(sh.live, sd.ID())
		sh.mu.Unlock()
		r.ver.check(key, ls)
	}
	if key.Proto == pkt.ProtoTCP && sd.Status() == scap.StatusClosed {
		sh.closedTCP.Add(1)
	}
}

// check compares one terminated stream with the reference.
func (v *verifier) check(key pkt.FlowKey, ls *liveStream) {
	var got liveStream
	if ls != nil {
		got = *ls
	}
	exp := v.ref.streams[key]
	if exp != nil && !exp.tcp && v.skipUDP {
		return
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	_, seen := v.matched[key]
	switch {
	case exp == nil:
		v.failLocked(fmt.Sprintf("unexpected stream %v (%d bytes)", key, got.n))
	case seen && got.n == 0:
		// A stream retired at its cutoff leaves its FIN to a record of its
		// own, which terminates empty.
	case seen:
		v.failLocked(fmt.Sprintf("stream %v delivered twice", key))
	case got.n != exp.want || got.sum != exp.wantSum:
		v.failLocked(fmt.Sprintf("stream %v: got %d bytes sum %08x, want %d bytes sum %08x", key, got.n, got.sum, exp.want, exp.wantSum))
	default:
		v.matched[key] = struct{}{}
	}
}

// failLocked records a mismatch; the caller holds v.mu.
func (v *verifier) failLocked(msg string) {
	v.mismatch++
	if v.firstErr == "" {
		v.firstErr = msg
	}
}

// settled is how many stream directions have been checked, right or wrong.
func (v *verifier) settled() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return len(v.matched) + v.mismatch
}

func (r *runner) totals() totals {
	var t totals
	for i := range r.shards {
		sh := &r.shards[i]
		t.created += sh.created.Load()
		t.chunks += sh.chunks.Load()
		t.terms += sh.terms.Load()
		t.tcpBytes += sh.tcpBytes.Load()
		t.udpBytes += sh.udpBytes.Load()
		t.closedTCP += sh.closedTCP.Load()
		t.probes += sh.probes.Load()
	}
	return t
}

func (r *runner) closedTCP() uint64 {
	var n uint64
	for i := range r.shards {
		n += r.shards[i].closedTCP.Load()
	}
	return n
}

// newRunner creates and starts the workload's socket. frames is what each
// pass injects; ref is what a correct capture of one pass delivers.
func newRunner(w workloadSpec, frames [][]byte, cliWord []uint8, ref *reference, maxProbes int) (*runner, error) {
	r := &runner{
		w: w, frames: frames, cliWord: cliWord, ref: ref, awaitTimeout: 15 * time.Second,
		batch:    make([]scap.RawFrame, 0, pacedBatch+3),
		probeBuf: make([]byte, 0, maxProbes*probeFrameBytes),
		probeDue: make([]int64, maxProbes),
		probeLat: make([]int64, maxProbes),
	}
	for i := range r.probeLat {
		r.probeLat[i] = -1
	}
	chunk := w.ChunkSize
	if chunk <= 0 {
		chunk = 16 << 10 // the socket's default
	}
	r.window = max(1, eventWindow*uint64(ref.tcpDirs)/max(ref.events(chunk), 1))
	cfg := scap.Config{Queues: 2, MemorySize: 1 << 30, UseFDIR: w.FDIR, ReassemblyMode: scap.TCPFast}
	if w.Strict {
		cfg.ReassemblyMode = scap.TCPStrict
	}
	cfg.Sketch.Enabled = w.Sketch
	h, err := scap.Create(cfg)
	if err != nil {
		return nil, err
	}
	if w.Cutoff >= 0 {
		err = errors.Join(err, h.SetCutoff(w.Cutoff))
	}
	if w.ChunkSize > 0 {
		err = errors.Join(err, h.SetParameter(scap.ParamChunkSize, int64(w.ChunkSize)))
	}
	err = errors.Join(err, h.SetParameter(scap.ParamInactivityTimeout, inactivityTimeout))
	if err != nil {
		return nil, err
	}
	h.DispatchCreation(r.onCreate)
	h.DispatchData(r.onData)
	h.DispatchTermination(r.onTerm)
	if err := h.StartCapture(); err != nil {
		return nil, err
	}
	r.h = h
	return r, nil
}

func (r *runner) inject(b []scap.RawFrame) {
	var err error
	if r.tr != nil {
		t0 := nowNS()
		err = r.h.InjectBatch(b)
		r.tr.injected(t0, nowNS(), len(b))
	} else {
		err = r.h.InjectBatch(b)
	}
	if err != nil {
		// Only a socket that is not running refuses frames: a harness bug.
		panic(err)
	}
	r.framesIn += uint64(len(b))
}

// appendFrame stages frame k of the current pass. The virtual clock moves
// by the frame's time on a 10 Gbit/s wire in every phase, so the socket's
// timeouts count traffic volume, not how fast the harness offers it: a
// slowly paced pass would otherwise idle whole stream directions past the
// inactivity timeout.
func (r *runner) appendFrame(k int) {
	f := r.frames[k]
	retuple(f, r.cliWord[k], r.pass)
	r.vts += int64(float64(len(f)+24) * 8e9 / satLinkBps)
	r.batch = append(r.batch, scap.RawFrame{Data: f, TS: r.vts})
}

// appendProbe stages a latency probe due at the given harness time.
func (r *runner) appendProbe(due int64) {
	ts := r.vts
	id := r.nextProbe
	if id >= len(r.probeDue) || cap(r.probeBuf)-len(r.probeBuf) < probeFrameBytes {
		return
	}
	r.nextProbe++
	r.probeDue[id] = due
	n := len(r.probeBuf)
	syn, data, rst := probeFrames(uint32(id), r.probeBuf[n:n])
	r.probeBuf = r.probeBuf[:n+len(syn)+len(data)+len(rst)]
	r.batch = append(r.batch, scap.RawFrame{Data: syn, TS: ts}, scap.RawFrame{Data: data, TS: ts}, scap.RawFrame{Data: rst, TS: ts})
}

// satPass injects one pass back to back, stamping pass completions as the
// terminations come in. It returns after injecting, not after completion.
func (r *runner) satPass(clock *passClock) {
	r.drainShortPass()
	if r.tr != nil {
		r.tr.passBegin()
	}
	n := len(r.frames)
	for i := 0; i < n; i += satBatch {
		r.batch = r.batch[:0]
		for k := i; k < min(i+satBatch, n); k++ {
			r.appendFrame(k)
		}
		r.inject(r.batch)
		r.throttle(clock, min(i+satBatch, n))
		for r.holdBack && i%(32*satBatch) == 0 {
			st, err := r.h.GetStats()
			if err != nil || st.MemoryUsed < 128<<20 {
				break
			}
			time.Sleep(200 * time.Microsecond)
		}
	}
	r.pass++
	r.passes++
}

// throttle closes the saturation loop over the event rings. InjectBatch
// blocks while the engines are behind, but nothing blocks the engines while
// the workers are: the harness does it. After injecting the first injected
// frames of the current pass it has asked for a known number of TCP
// terminations; while the callbacks have seen more than window fewer, the
// injector waits. The events between a frame and its flow's termination
// average out, so window directions stand for about eventWindow events. On
// an undisturbed run the wait is rare (windowStalls is printed).
func (r *runner) throttle(clock *passClock, injected int) {
	asked := uint64(r.passes)*uint64(r.ref.tcpDirs) + uint64(r.ref.closeCum[injected])
	if seen := r.poll(clock); asked <= seen+r.window {
		return
	}
	r.windowStalls++
	deadline := time.Now().Add(r.awaitTimeout)
	for asked > r.poll(clock)+r.window {
		if time.Now().After(deadline) {
			// Terminations went missing; await will book them. Stop waiting
			// for them at every batch.
			r.window = math.MaxUint64 / 2
			return
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// drainShortPass waits, when passes are too short to pipeline, until the
// engines have consumed every frame injected so far.
func (r *runner) drainShortPass() {
	if len(r.frames) >= minPipelinedFrames {
		return
	}
	r.drain()
}

// drain waits until the engines have consumed every frame injected so far.
func (r *runner) drain() {
	deadline := time.Now().Add(r.awaitTimeout)
	for time.Now().Before(deadline) {
		st, err := r.h.GetStats()
		if err != nil || st.Packets+st.DroppedAtNIC >= r.framesIn {
			return
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// poll stamps any pass the termination count has completed and returns
// the count.
func (r *runner) poll(clock *passClock) uint64 {
	c := r.closedTCP()
	if c < clock.target() {
		return c
	}
	before := clock.done
	clock.observe(c, nowNS())
	if r.tr != nil {
		for k := before; k < clock.done; k++ {
			r.tr.passEnd(clock.stamps[k+1], r)
		}
	}
	return c
}

// await waits until the clock has seen the given number of passes complete
// and books the missing stream directions as lost otherwise.
func (r *runner) await(clock *passClock, passes int, phase string) {
	deadline := time.Now().Add(r.awaitTimeout)
	for clock.done < uint64(passes) {
		done := clock.done
		if r.poll(clock); clock.done > done {
			continue
		}
		if time.Now().After(deadline) {
			missing := clock.base + uint64(passes)*clock.perPass - r.closedTCP()
			r.failed += int(missing)
			r.lostBytes += missing * r.ref.tcpBytes / uint64(max(r.ref.tcpDirs, 1))
			r.problems = append(r.problems, fmt.Sprintf("%s: %d stream terminations missing after %v", phase, missing, r.awaitTimeout))
			return
		}
		time.Sleep(50 * time.Microsecond)
	}
}

func (r *runner) newClock(passes int) *passClock {
	return newPassClock(uint64(r.ref.tcpDirs), r.closedTCP(), nowNS(), passes)
}

// verifyPass injects the first pass with checking callbacks and compares
// every stream direction with the reference.
func (r *runner) verifyPass() {
	r.ver = verifier{ref: r.ref, skipUDP: r.w.Sketch, matched: make(map[pkt.FlowKey]struct{}, len(r.ref.streams))}
	for i := range r.shards {
		r.shards[i].live = make(map[uint64]*liveStream)
	}
	r.verifying.Store(true)
	r.holdBack = true
	clock := r.newClock(1)
	r.satPass(clock)
	r.holdBack = false
	r.await(clock, 1, "verification")

	want := r.ref.tcpDirs
	if r.ref.udpDirs > 0 && !r.ver.skipUDP {
		// Datagram streams end only by inactivity: move the virtual clock
		// past the timeout and let the expiry sweep terminate them.
		want += r.ref.udpDirs
		r.drain() // no datagram may arrive after its stream has expired
		r.vts += 2 * inactivityTimeout
		r.batch = r.batch[:0]
		r.appendProbe(nowNS())
		r.inject(r.batch)
		deadline := time.Now().Add(r.awaitTimeout)
		for r.ver.settled() < want && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
	}
	r.verifying.Store(false)
	for i := range r.shards {
		r.shards[i].live = nil
	}

	v := &r.ver
	v.mu.Lock()
	defer v.mu.Unlock()
	bad := v.mismatch
	for key, exp := range r.ref.streams {
		if !exp.tcp && v.skipUDP {
			continue
		}
		if _, ok := v.matched[key]; !ok {
			r.lostBytes += exp.want
			r.failed++
			bad++
			if v.firstErr == "" {
				v.firstErr = fmt.Sprintf("stream %v not delivered", key)
			}
		}
	}
	if bad > 0 {
		r.problems = append(r.problems, fmt.Sprintf("verification: %d of %d stream directions wrong; first: %s", bad, want, v.firstErr))
	}
	v.matched = nil
}

// satResult is one saturation phase, or several added up.
type satResult struct {
	passes     int
	frames     uint64
	rates      []float64 // per-pass completed frames per second
	mallocs    uint64
	allocBytes uint64
	callbacks  totals
	wallNS     int64
	calib      []float64 // host calibration before the phase and after each part
}

func (s *satResult) add(o satResult) {
	s.passes += o.passes
	s.frames += o.frames
	s.rates = append(s.rates, o.rates...)
	s.mallocs += o.mallocs
	s.allocBytes += o.allocBytes
	s.callbacks = s.callbacks.add(o.callbacks)
	s.wallNS += o.wallNS
}

// satParts is how many parts the end-to-end saturation phase runs in.
const satParts = 6

// saturateParts runs the saturation phase in satParts parts, the pipeline
// drained and the host calibrated between them, so that the phase's
// calibration is a mean of readings spread over it.
func (r *runner) saturateParts(d time.Duration) satResult {
	sat := satResult{calib: []float64{calibrate()}}
	for k := 0; k < satParts; k++ {
		sat.add(r.saturate(d / satParts))
		sat.calib = append(sat.calib, calibrate())
	}
	return sat
}

// saturate runs closed-loop passes for at least d: one injector, each
// InjectBatch issued as soon as the previous returns, the bounded delivery
// channels closing the loop.
func (r *runner) saturate(d time.Duration) satResult {
	const maxPasses = 1 << 14
	var m0, m1 runtime.MemStats
	t0 := r.totals()
	runtime.ReadMemStats(&m0)
	clock := r.newClock(maxPasses)
	start := clock.stamps[0]
	passes := 0
	for passes < maxPasses {
		r.satPass(clock)
		passes++
		if nowNS()-start >= int64(d) {
			break
		}
	}
	r.await(clock, passes, "saturation")
	end := nowNS()
	runtime.ReadMemStats(&m1)
	frames := uint64(passes) * uint64(len(r.frames))
	return satResult{
		passes:     passes,
		frames:     frames,
		rates:      clock.rates(len(r.frames)),
		mallocs:    m1.Mallocs - m0.Mallocs,
		allocBytes: m1.TotalAlloc - m0.TotalAlloc,
		callbacks:  r.totals().sub(t0),
		wallNS:     end - start,
	}
}

// pacedResult is one paced phase.
type pacedResult struct {
	passes        int
	frames        uint64 // workload frames; probes excluded
	probes        int
	cpuNSPerFrame float64
	latUS         []float64 // probe latency from due time
	lateUS        []float64 // generator lateness per batch
	achievedFrac  float64
	attempts      int
	calib         []float64 // host calibration before, between passes and after
}

// pacedAttempts is how often the paced phase is run before a generator that
// fell behind counts as a failure.
const pacedAttempts = 3

// paced runs the open-loop phase until the generator has kept its rate. A
// phase in which it achieved less than 99 % of the rate did not measure that
// rate: on a shared host the usual cause is the injector's thread losing its
// core near the end of the phase, so the phase is repeated, every attempt
// counted. If no attempt holds the rate the socket cannot take it, and the
// last attempt's frames are booked as failures, not as slower measurements.
func (r *runner) paced(d time.Duration) pacedResult {
	for try := 1; ; try++ {
		res := r.pacedOnce(d)
		res.attempts = try
		if res.achievedFrac >= 0.99 {
			return res
		}
		if try == pacedAttempts {
			r.lostBytes += uint64(res.passes) * (r.ref.tcpBytes + r.ref.udpBytes)
			r.failed += res.passes * (r.ref.tcpDirs + r.ref.udpDirs)
			r.problems = append(r.problems, fmt.Sprintf("paced: achieved %.1f%% of %.0f frames/s in the last of %d attempts", 100*res.achievedFrac, r.w.PacedFPS, try))
			return res
		}
	}
}

// pacedOnce runs the open-loop phase once: batches are released on a fixed
// schedule whether or not the socket keeps up, every second batch carries a
// probe flow, and probe latency counts from the batch's due time. It runs
// whole passes, so it lasts at least d rounded up to a pass.
func (r *runner) pacedOnce(d time.Duration) pacedResult {
	fps := r.w.PacedFPS
	n := len(r.frames)
	passes := max(1, int(math.Ceil(d.Seconds()*fps/float64(n))))
	nsPerFrame := 1e9 / fps
	res := pacedResult{passes: passes, lateUS: make([]float64, 0, passes*(n/pacedBatch+1))}
	firstProbe := r.nextProbe
	probes0 := r.totals().probes
	clock := r.newClock(passes)

	res.calib = append(res.calib, calibrate())
	cpu0 := cpuNS()
	start := nowNS() + int64(time.Millisecond)
	clock.stamps[0] = start
	sent, batches := 0, 0
	for p := 0; p < passes; p++ {
		if p > 0 {
			// Calibrate between passes: the schedule moves back by the time
			// that takes and the CPU it burns is not the socket's. Flows in
			// flight do not notice; the virtual clock stands still.
			t0, c0 := nowNS(), cpuNS()
			res.calib = append(res.calib, calibrate())
			start += nowNS() - t0
			cpu0 += cpuNS() - c0
		}
		r.drainShortPass()
		if r.tr != nil {
			r.tr.passBegin()
		}
		for i := 0; i < n; i += pacedBatch {
			due := start + int64(float64(sent)*nsPerFrame)
			now := nowNS()
			for due > now {
				sleepNS(due - now)
				now = nowNS()
			}
			res.lateUS = append(res.lateUS, float64(max(now-due, 0))/1e3)
			j := min(i+pacedBatch, n)
			r.batch = r.batch[:0]
			for k := i; k < j; k++ {
				r.appendFrame(k)
			}
			if batches%2 == 1 {
				r.appendProbe(due)
			}
			r.inject(r.batch)
			sent += j - i
			batches++
			r.poll(clock)
		}
		r.pass++
		r.passes++
	}
	injectEnd := nowNS()
	r.await(clock, passes, "paced")
	res.probes = r.nextProbe - firstProbe
	deadline := time.Now().Add(r.awaitTimeout)
	for r.totals().probes-probes0 < uint64(res.probes) && time.Now().Before(deadline) {
		time.Sleep(50 * time.Microsecond)
	}
	cpu1 := cpuNS()
	res.calib = append(res.calib, calibrate())

	res.frames = uint64(sent)
	res.cpuNSPerFrame = float64(cpu1-cpu0) / float64(sent+3*res.probes)
	res.achievedFrac = float64(sent) * nsPerFrame / float64(injectEnd-start)
	missing := 0
	for id := firstProbe; id < r.nextProbe; id++ {
		if lat := r.probeLat[id]; lat >= 0 {
			res.latUS = append(res.latUS, float64(lat)/1e3)
		} else {
			missing++
		}
	}
	if missing > 0 {
		r.failed += missing
		r.lostBytes += uint64(missing) * probePayloadBytes
		r.problems = append(r.problems, fmt.Sprintf("paced: %d of %d probes never terminated", missing, res.probes))
	}
	return res
}

// closeResult is the outcome of Close and the conservation check.
type closeResult struct {
	drainMS   float64
	stats     scap.Stats
	final     totals
	expectedB uint64
	lossFrac  float64
	attempted int
	failed    int
	correct   bool
	problems  []string
}

// finish closes the socket and settles the accounts: every reference byte
// of every pass injected must have reached a data callback, and the frozen
// statistics must account for every frame.
func (r *runner) finish() closeResult {
	t0 := nowNS()
	err := r.h.Close()
	res := closeResult{drainMS: float64(nowNS()-t0) / 1e6}
	if err != nil {
		r.problems = append(r.problems, "close: "+err.Error())
	}
	st, err := r.h.GetStats()
	if err != nil {
		r.problems = append(r.problems, "stats: "+err.Error())
	}
	res.stats, res.final = st, r.totals()

	passes := uint64(r.passes)
	probes := uint64(r.nextProbe)
	// The sketch answers untracked datagram flows probabilistically, so on
	// a sketch workload only TCP has a deterministic expected delivery.
	udpCounted := !r.w.Sketch
	expTCP := passes*r.ref.tcpBytes + probes*probePayloadBytes
	res.expectedB = expTCP
	short := expTCP - min(res.final.tcpBytes, expTCP)
	if res.final.tcpBytes > expTCP {
		r.problems = append(r.problems, fmt.Sprintf("delivered %d TCP bytes, more than the %d expected", res.final.tcpBytes, expTCP))
	}
	if udpCounted {
		expUDP := passes * r.ref.udpBytes
		res.expectedB += expUDP
		short += expUDP - min(res.final.udpBytes, expUDP)
		if res.final.udpBytes > expUDP {
			r.problems = append(r.problems, fmt.Sprintf("delivered %d UDP bytes, more than the %d expected", res.final.udpBytes, expUDP))
		}
	}
	if short > 0 {
		r.problems = append(r.problems, fmt.Sprintf("%d of %d expected bytes never reached a data callback", short, res.expectedB))
	}
	lost := max(short, r.lostBytes)
	res.lossFrac = min(1, float64(lost)/float64(max(res.expectedB, 1)))

	check := func(ok bool, format string, args ...any) {
		if !ok {
			r.problems = append(r.problems, "conservation: "+fmt.Sprintf(format, args...))
		}
	}
	check(st.FramesReceived == r.framesIn, "NIC saw %d frames, harness injected %d", st.FramesReceived, r.framesIn)
	check(st.DroppedRing == 0, "%d frames lost to full NIC rings", st.DroppedRing)
	check(st.DecodeErrors == 0, "%d decode errors", st.DecodeErrors)
	check(st.EventsLost == 0, "%d events lost to full event rings", st.EventsLost)
	check(st.PPLDroppedPkts == 0, "%d packets shed by PPL", st.PPLDroppedPkts)
	check(st.Packets+st.DroppedAtNIC == st.FramesReceived, "packets %d + dropped at NIC %d != frames %d", st.Packets, st.DroppedAtNIC, st.FramesReceived)
	check(st.StoredBytes == res.final.tcpBytes+res.final.udpBytes, "stored %d bytes, callbacks saw %d", st.StoredBytes, res.final.tcpBytes+res.final.udpBytes)
	check(st.MemoryUsed == 0, "%d bytes of stream memory still held", st.MemoryUsed)
	if r.w.Cutoff < 0 {
		check(st.DroppedAtNIC == 0 && st.CutoffBytes == 0, "drops without a cutoff: %d at NIC, %d cutoff bytes", st.DroppedAtNIC, st.CutoffBytes)
		check(st.StreamsCreated == st.StreamsClosed+st.StreamsExpired+st.StreamsEvicted, "streams created %d != closed %d + expired %d + evicted %d", st.StreamsCreated, st.StreamsClosed, st.StreamsExpired, st.StreamsEvicted)
	}

	res.attempted = int(passes)*r.ref.tcpDirs + int(probes)
	if udpCounted {
		res.attempted += r.ref.udpDirs // checked stream by stream in the verification pass
	}
	res.failed = min(r.failed, res.attempted)
	res.problems = r.problems
	res.correct = len(r.problems) == 0 && res.lossFrac == 0
	if !res.correct && res.failed == 0 {
		res.failed = 1
	}
	return res
}

// closeDiscard closes a socket whose run is not reported (a repeated
// set-up) and gives its memory back before the next one is built.
func closeDiscard(r *runner) {
	_ = r.h.Close() // its verification verdict is already in r.problems
	r.h = nil
	debug.FreeOSMemory() // collects first
}
