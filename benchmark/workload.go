package main

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"net/netip"

	"scap/internal/pkt"
)

// workloadSpec is one benchmark workload: the traffic moments the frame
// slice is built from, the socket configuration it runs under, and the
// fixed frame rate of its paced phase.
type workloadSpec struct {
	Name string
	Why  string

	Flows      int
	Concurrent int
	// Flow payload sizes are the Flows quantiles of a bounded Pareto with
	// shape Alpha on [MinBytes, MaxBytes] (Alpha 0: uniform), so every seed
	// carries the same size multiset and only order, addresses, content and
	// perturbation placement differ.
	Alpha    float64
	MinBytes int
	MaxBytes int
	MSS      int
	// TCPFraction of the flows (spread evenly over the size ranks) are TCP.
	TCPFraction float64
	ReorderProb float64
	DupProb     float64

	Strict    bool
	ChunkSize int   // 0 keeps the socket default (16 KiB)
	Cutoff    int64 // < 0: no cutoff
	FDIR      bool
	Sketch    bool

	// PacedFPS is the open-loop rate of the paced phase in workload
	// frames per second.
	PacedFPS float64
}

// requestFraction of a flow's bytes travel client→server, as in
// internal/trace.
const requestFraction = 0.12

var workloads = []workloadSpec{
	{
		Name:  "campus_mix",
		Why:   "the paper's trace moments (heavy-tailed flow sizes, ~1.2 KB frames, 95.4% TCP, light reorder and duplication): every layer works in proportion; the headline number",
		Flows: 16384, Concurrent: 4096,
		Alpha: 1.2, MinBytes: 6000, MaxBytes: 10 << 20, MSS: 1460,
		TCPFraction: 0.954, ReorderProb: 0.02, DupProb: 0.01,
		Cutoff: -1, PacedFPS: 300000,
	},
	{
		Name:  "bulk_reorder",
		Why:   "few large flows, strict mode, 20% reorder, 5% duplicates: per-byte layers (reassembly slow path, arena, events, chunk callbacks) dominate and flow set-up is negligible",
		Flows: 256, Concurrent: 64,
		MinBytes: 256 << 10, MaxBytes: 4 << 20, MSS: 1460,
		TCPFraction: 1, ReorderProb: 0.20, DupProb: 0.05,
		Strict: true, Cutoff: -1, PacedFPS: 400000,
	},
	{
		Name:  "churn_smallflows",
		Why:   "65536 tiny TCP flows (~100 B/frame, a stream creation every ~3 frames): per-frame and per-stream layers (decode, steering, flow table, creation and termination events) do nearly all the work",
		Flows: 65536, Concurrent: 16384,
		MinBytes: 64, MaxBytes: 512, MSS: 1460,
		TCPFraction: 1, ChunkSize: 2048,
		Cutoff: -1, PacedFPS: 150000,
	},
	{
		Name:  "campus_cutoff",
		Why:   "campus_mix frames under a 128 KiB cutoff with FDIR filters and the sketch: the same layers on their drop path (filter install and lookup, cutoff discard, sketch suppression)",
		Flows: 16384, Concurrent: 4096,
		Alpha: 1.2, MinBytes: 6000, MaxBytes: 10 << 20, MSS: 1460,
		TCPFraction: 0.954, ReorderProb: 0.02, DupProb: 0.01,
		Cutoff: 128 << 10, FDIR: true, Sketch: true, PacedFPS: 300000,
	},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// scaled shrinks the workload by div (flows, concurrency and paced rate)
// for -quick runs and tests; the per-flow size distribution is unchanged.
func (w workloadSpec) scaled(div int) workloadSpec {
	if div <= 1 {
		return w
	}
	w.Flows = max(w.Flows/div, 8)
	w.Concurrent = max(w.Concurrent/div, 4)
	return w
}

// flowSizes returns the stratified size multiset in rank order.
func (w workloadSpec) flowSizes() []int {
	sizes := make([]int, w.Flows)
	lo, hi := float64(w.MinBytes), float64(w.MaxBytes)
	r := 0.0
	if w.Alpha > 0 {
		r = math.Exp(w.Alpha * math.Log(lo/hi)) // (L/H)^α
	}
	for i := range sizes {
		u := (float64(i) + 0.5) / float64(w.Flows)
		x := lo + u*(hi-lo)
		if w.Alpha > 0 {
			x = lo * math.Pow(1-u*(1-r), -1/w.Alpha)
		}
		sizes[i] = min(max(int(x), w.MinBytes), w.MaxBytes)
	}
	return sizes
}

// Client addresses are 10.r.P.P: r is random per flow and P.P is the pass
// counter the injector rewrites before each pass (retuple), so every pass
// presents fresh 5-tuples. Replaying identical tuples would let state that
// deliberately outlives a flow (FDIR drop filters handed to the sketch,
// heavy-hitter nominations) discard the next pass's data at the NIC.
const (
	ipSrcOff    = pkt.EthernetHeaderLen + 12
	ipDstOff    = pkt.EthernetHeaderLen + 16
	ipCsumOff   = pkt.EthernetHeaderLen + 10
	ipProtoOff  = pkt.EthernetHeaderLen + 9
	l4Off       = pkt.EthernetHeaderLen + pkt.IPv4MinHeaderLen
	tcpCsumOff  = l4Off + 16
	udpCsumOff  = l4Off + 6
	cliWordSrc  = ipSrcOff + 2
	cliWordDst  = ipDstOff + 2
	probeOctet0 = 172
)

// frameSet is a built workload: frames in emission order plus, per frame,
// where the client address' pass word sits.
type frameSet struct {
	frames  [][]byte
	cliWord []uint8
	bytes   int64
}

// slabPool hands out frame storage from large pointer-free slabs, so the
// garbage collector never scans frame bytes and repeated set-ups of the
// same workload reuse the same memory.
type slabPool struct {
	slabs [][]byte
	cur   int
	off   int
}

const slabSize = 32 << 20

func (p *slabPool) reset() { p.cur, p.off = 0, 0 }

// reserve returns an empty slice with capacity for exactly n bytes.
func (p *slabPool) reserve(n int) []byte {
	if n > slabSize {
		panic("benchmark: frame larger than a slab")
	}
	if p.cur < len(p.slabs) && p.off+n > slabSize {
		p.cur++
		p.off = 0
	}
	if p.cur == len(p.slabs) {
		p.slabs = append(p.slabs, make([]byte, slabSize))
	}
	s := p.slabs[p.cur]
	b := s[p.off : p.off : p.off+n]
	p.off += n
	return b
}

type pendingFrame struct {
	data []byte
	off  uint8
}

type genSession struct {
	key      pkt.FlowKey
	tcp      bool
	phase    uint8
	seq      uint32
	srvSeq   uint32
	reqLeft  int
	respLeft int
	ipid     uint16
	pending  []pendingFrame
}

const (
	phSYN = iota
	phSYNACK
	phData
	phFIN
	phFINACK
	phDone
)

type generator struct {
	w       workloadSpec
	rng     *rand.Rand
	pool    *slabPool
	content []byte
	out     *frameSet
}

// buildFrames synthesizes the workload's frame slice from seed. Every TCP
// flow is complete (SYN, SYN-ACK, data, FIN, FIN-ACK) and FIN segments are
// never reordered or duplicated, so each stream direction has exactly one
// correct reassembly. pool may carry slabs from an earlier build.
func buildFrames(w workloadSpec, seed int64, pool *slabPool) *frameSet {
	if pool == nil {
		pool = &slabPool{}
	}
	pool.reset()
	rng := rand.New(rand.NewSource(seed))
	g := &generator{w: w, rng: rng, pool: pool, out: &frameSet{}}
	g.content = make([]byte, 1<<20+w.MSS)
	rng.Read(g.content)

	sizes := w.flowSizes()
	// UDP flows sit at evenly spaced size ranks, so the per-protocol size
	// multisets are seed-independent too.
	udpShare := 1 - w.TCPFraction
	isUDP := make([]bool, len(sizes))
	for i := range sizes {
		isUDP[i] = math.Floor(float64(i+1)*udpShare) > math.Floor(float64(i)*udpShare)
	}
	order := rng.Perm(len(sizes))

	seen := make(map[pkt.FlowKey]struct{}, len(sizes))
	next := 0
	spawn := func() *genSession {
		i := order[next]
		next++
		return g.newSession(sizes[i], !isUDP[i], seen)
	}
	var active []*genSession
	for len(active) < w.Concurrent && next < len(order) {
		active = append(active, spawn())
	}
	for len(active) > 0 {
		i := rng.Intn(len(active))
		f, ok := active[i].next(g)
		if !ok {
			if next < len(order) {
				active[i] = spawn()
			} else {
				active[i] = active[len(active)-1]
				active = active[:len(active)-1]
			}
			continue
		}
		g.out.frames = append(g.out.frames, f.data)
		g.out.cliWord = append(g.out.cliWord, f.off)
		g.out.bytes += int64(len(f.data))
	}
	return g.out
}

var serverPorts = []struct {
	port   uint16
	weight float64
}{{80, 0.55}, {443, 0.2}, {25, 0.05}, {22, 0.05}, {8080, 0.05}, {53, 0.05}, {1935, 0.05}}

func (g *generator) newSession(total int, tcp bool, seen map[pkt.FlowKey]struct{}) *genSession {
	req := max(int(float64(total)*requestFraction), 1)
	resp := max(total-req, 1)
	ss := &genSession{tcp: tcp, reqLeft: req, respLeft: resp}
	for {
		r := g.rng.Float64()
		port := serverPorts[len(serverPorts)-1].port
		for _, pw := range serverPorts {
			if r -= pw.weight; r <= 0 {
				port = pw.port
				break
			}
		}
		ss.key = pkt.FlowKey{
			SrcIP:   netip.AddrFrom4([4]byte{10, byte(g.rng.Intn(256)), 0, 0}),
			DstIP:   netip.AddrFrom4([4]byte{203, byte(g.rng.Intn(64)), byte(g.rng.Intn(256)), byte(1 + g.rng.Intn(254))}),
			SrcPort: uint16(1024 + g.rng.Intn(64000)),
			DstPort: port,
			Proto:   pkt.ProtoTCP,
		}
		if !tcp {
			ss.key.Proto = pkt.ProtoUDP
		}
		if _, dup := seen[ss.key]; !dup {
			seen[ss.key] = struct{}{}
			break
		}
	}
	ss.seq, ss.srvSeq = g.rng.Uint32(), g.rng.Uint32()
	if !tcp {
		ss.phase = phData
	}
	return ss
}

func (g *generator) payload(n int) []byte {
	off := g.rng.Intn(1 << 20)
	return g.content[off : off+n]
}

func (g *generator) tcp(key pkt.FlowKey, seq, ack uint32, flags uint8, ipid uint16, payload []byte, off uint8) pendingFrame {
	need := l4Off + pkt.TCPMinHeaderLen + len(payload)
	f := pkt.AppendTCP(g.pool.reserve(need), pkt.TCPSpec{Key: key, Seq: seq, Ack: ack, Flags: flags, IPID: ipid, Payload: payload})
	return pendingFrame{f, off}
}

// next emits the session's next frame; ok is false when the flow is done.
func (ss *genSession) next(g *generator) (f pendingFrame, ok bool) {
	if len(ss.pending) > 0 {
		f = ss.pending[0]
		ss.pending = ss.pending[1:]
		return f, true
	}
	ss.ipid++
	if !ss.tcp {
		return ss.nextUDP(g)
	}
	rev := ss.key.Reverse()
	switch ss.phase {
	case phSYN:
		f = g.tcp(ss.key, ss.seq, 0, pkt.FlagSYN, ss.ipid, nil, cliWordSrc)
		ss.seq++
		ss.phase = phSYNACK
	case phSYNACK:
		f = g.tcp(rev, ss.srvSeq, ss.seq, pkt.FlagSYN|pkt.FlagACK, ss.ipid, nil, cliWordDst)
		ss.srvSeq++
		ss.phase = phData
	case phData:
		return ss.nextData(g)
	case phFIN:
		f = g.tcp(ss.key, ss.seq, ss.srvSeq, pkt.FlagFIN|pkt.FlagACK, ss.ipid, nil, cliWordSrc)
		ss.seq++
		ss.phase = phFINACK
	case phFINACK:
		f = g.tcp(rev, ss.srvSeq, ss.seq, pkt.FlagFIN|pkt.FlagACK, ss.ipid, nil, cliWordDst)
		ss.srvSeq++
		ss.phase = phDone
	default:
		return f, false
	}
	return f, true
}

// nextData emits the request, then the response, one MSS-bounded segment
// at a time. A duplicated segment is re-emitted on the flow's next turn; a
// reordered one is delayed one turn behind its successor.
func (ss *genSession) nextData(g *generator) (pendingFrame, bool) {
	if ss.reqLeft <= 0 && ss.respLeft <= 0 {
		ss.phase = phFIN
		return ss.next(g)
	}
	var f pendingFrame
	if ss.reqLeft > 0 {
		n := min(ss.reqLeft, g.w.MSS)
		f = g.tcp(ss.key, ss.seq, ss.srvSeq, pkt.FlagACK|pkt.FlagPSH, ss.ipid, g.payload(n), cliWordSrc)
		ss.seq += uint32(n)
		ss.reqLeft -= n
	} else {
		n := min(ss.respLeft, g.w.MSS)
		f = g.tcp(ss.key.Reverse(), ss.srvSeq, ss.seq, pkt.FlagACK|pkt.FlagPSH, ss.ipid, g.payload(n), cliWordDst)
		ss.srvSeq += uint32(n)
		ss.respLeft -= n
	}
	switch {
	case g.rng.Float64() < g.w.DupProb:
		dup := append(g.pool.reserve(len(f.data)), f.data...)
		ss.pending = append(ss.pending, pendingFrame{dup, f.off})
	case g.rng.Float64() < g.w.ReorderProb && (ss.reqLeft > 0 || ss.respLeft > 0):
		succ, _ := ss.nextData(g)
		ss.pending = append([]pendingFrame{f}, ss.pending...)
		return succ, true
	}
	return f, true
}

func (ss *genSession) nextUDP(g *generator) (pendingFrame, bool) {
	if ss.reqLeft <= 0 && ss.respLeft <= 0 {
		return pendingFrame{}, false
	}
	key, left, off := ss.key, &ss.reqLeft, uint8(cliWordSrc)
	if ss.reqLeft <= 0 {
		key, left, off = ss.key.Reverse(), &ss.respLeft, cliWordDst
	}
	n := min(*left, g.w.MSS)
	*left -= n
	need := l4Off + pkt.UDPHeaderLen + n
	f := pkt.AppendUDP(g.pool.reserve(need), pkt.UDPSpec{Key: key, IPID: ss.ipid, Payload: g.payload(n)})
	return pendingFrame{f, off}, true
}

// retuple rewrites the pass word of a frame's client address to pass and
// patches the IPv4 header and TCP/UDP checksums incrementally (RFC 1624),
// so the frame stays a valid packet. It is idempotent.
func retuple(frame []byte, off uint8, pass uint16) {
	old := binary.BigEndian.Uint16(frame[off:])
	if old == pass {
		return
	}
	binary.BigEndian.PutUint16(frame[off:], pass)
	fix := func(at int, zeroMeansNone bool) {
		c := binary.BigEndian.Uint16(frame[at:])
		if zeroMeansNone && c == 0 {
			return
		}
		sum := uint32(^c) + uint32(^old) + uint32(pass)
		sum = (sum & 0xffff) + (sum >> 16)
		sum = (sum & 0xffff) + (sum >> 16)
		c = ^uint16(sum)
		if zeroMeansNone && c == 0 {
			c = 0xffff
		}
		binary.BigEndian.PutUint16(frame[at:], c)
	}
	fix(ipCsumOff, false)
	if frame[ipProtoOff] == pkt.ProtoTCP {
		fix(tcpCsumOff, false)
	} else {
		fix(udpCsumOff, true)
	}
}

// probeFrames builds latency probe number id: a SYN, one 18-byte data
// segment and an RST from a client address unique to the probe (inside
// 172.16.0.0/12), so the pair terminates the moment the RST is processed.
func probeFrames(id uint32, dst []byte) (syn, data, rst []byte) {
	if id >= 1<<20 {
		panic(fmt.Sprintf("benchmark: probe id %d out of range", id))
	}
	key := pkt.FlowKey{
		SrcIP:   netip.AddrFrom4([4]byte{probeOctet0, 16 + byte(id>>16), byte(id >> 8), byte(id)}),
		DstIP:   netip.AddrFrom4([4]byte{203, 0, 113, 7}),
		SrcPort: 40000,
		DstPort: 80,
		Proto:   pkt.ProtoTCP,
	}
	const isn = 1000
	payload := []byte("scap-bench-probe!\n")
	n0 := len(dst)
	dst = pkt.AppendTCP(dst, pkt.TCPSpec{Key: key, Seq: isn, Flags: pkt.FlagSYN})
	n1 := len(dst)
	dst = pkt.AppendTCP(dst, pkt.TCPSpec{Key: key, Seq: isn + 1, Flags: pkt.FlagACK | pkt.FlagPSH, Payload: payload})
	n2 := len(dst)
	dst = pkt.AppendTCP(dst, pkt.TCPSpec{Key: key, Seq: isn + 1 + uint32(len(payload)), Flags: pkt.FlagRST})
	return dst[n0:n1:n1], dst[n1:n2:n2], dst[n2:len(dst):len(dst)]
}

const (
	probeFrameBytes   = 3*(l4Off+pkt.TCPMinHeaderLen) + probePayloadBytes
	probePayloadBytes = 18
)

// probeID recovers the probe number from a stream key, or -1 when the key
// is not a probe's.
func probeID(k pkt.FlowKey) int {
	a := k.SrcIP.As4()
	if a[0] != probeOctet0 || k.SrcPort != 40000 {
		return -1
	}
	return int(a[1]-16)<<16 | int(a[2])<<8 | int(a[3])
}
