package scap

import (
	"time"

	"scap/internal/core"
	"scap/internal/event"
	"scap/internal/flowtab"
	"scap/internal/pkt"
	"scap/internal/reassembly"
)

// Status is a stream's lifecycle state (sd->status).
type Status = flowtab.Status

// Stream statuses.
const (
	StatusActive   = flowtab.StatusActive
	StatusClosed   = flowtab.StatusClosed
	StatusTimedOut = flowtab.StatusTimedOut
	StatusCutoff   = flowtab.StatusCutoff
	StatusEvicted  = flowtab.StatusEvicted
)

// ErrorFlags report reassembly anomalies (sd->error).
type ErrorFlags = reassembly.Flags

// Error flag bits.
const (
	ErrHole           = reassembly.FlagHole
	ErrBufferOverflow = reassembly.FlagBufferOverflow
	ErrStrictDrop     = reassembly.FlagStrictDrop
	ErrBadHandshake   = reassembly.FlagBadHandshake
)

// FlowKey identifies a flow direction (addresses, ports, protocol).
type FlowKey = pkt.FlowKey

// StreamStats are per-stream counters (sd->stats).
type StreamStats = flowtab.Stats

// PacketInfo is one captured packet of a stream, for packet-based
// processing alongside stream-based processing (scap_next_stream_packet).
type PacketInfo struct {
	// Timestamp is the capture time in virtual nanoseconds.
	Timestamp int64
	// WireLen / CapLen are the original and captured lengths.
	WireLen int
	CapLen  int
	// Seq and Flags are the TCP header fields (zero for UDP).
	Seq   uint32
	Flags uint8
	// Payload is the packet's payload bytes within the current chunk; nil
	// when the bytes are not present (duplicate or reordered data).
	Payload []byte
}

// Stream is the descriptor passed to every callback (stream_t *sd). It is
// a consistent snapshot taken when the event was generated — the engine
// keeps mutating the live record, exactly why the paper maintains a second
// stream_t instance for user level (§5.4). Control methods (SetCutoff,
// SetPriority, Discard, KeepChunk) route back to the owning engine and are
// applied asynchronously, validated against the stream's identity.
//
// A Stream (and its Data slice) is valid only for the duration of the
// callback.
type Stream struct {
	// info points at the event's snapshot in its ring slot; the slot stays
	// the worker's until the callback has returned.
	info *flowtab.Info

	// Data is the current chunk for data events (sd->data); nil for
	// creation/termination events. It is a zero-copy view into the chunk's
	// arena block — the same memory the kernel path wrote the payload into —
	// and the block is recycled after the callback returns, so callers must
	// copy anything they need to retain (or use KeepChunk to have the block
	// carried into the next delivery).
	Data []byte
	// HoleBefore reports that fast-mode reassembly skipped a sequence
	// hole immediately before this chunk.
	HoleBefore bool
	// Last reports that this is the stream's final chunk.
	Last bool

	pkts    []event.PacketRecord
	pktIdx  int
	handle  *Handle
	engine  *core.Engine
	raw     *flowtab.Stream
	keep    bool
	procCum time.Duration
}

// ID returns the socket-wide unique stream identifier.
func (sd *Stream) ID() uint64 { return sd.info.ID }

// Key returns the stream's 5-tuple (source = the direction's sender).
func (sd *Stream) Key() FlowKey { return sd.info.Key }

// Dir reports whether this direction is client->server or the reverse.
func (sd *Stream) Dir() Direction { return Direction(sd.info.Dir) }

// Status returns the lifecycle state.
func (sd *Stream) Status() Status { return sd.info.Status }

// Error returns the reassembly anomaly flags.
func (sd *Stream) Error() ErrorFlags { return sd.info.Error }

// Stats returns the per-stream counters.
func (sd *Stream) Stats() StreamStats { return sd.info.Stats }

// Cutoff returns the stream's effective cutoff.
func (sd *Stream) Cutoff() int64 { return sd.info.Cutoff }

// Priority returns the stream's PPL priority.
func (sd *Stream) Priority() int { return sd.info.Priority }

// Chunks returns how many data chunks have been delivered so far
// (sd->chunks).
func (sd *Stream) Chunks() uint64 { return sd.info.Chunks }

// OppositeID returns the reverse direction's stream ID (0 if untracked).
func (sd *Stream) OppositeID() uint64 { return sd.info.OppositeID }

// HWFilterInstalled reports that an FDIR drop-filter pair currently
// suppresses this stream's data packets at the NIC.
func (sd *Stream) HWFilterInstalled() bool { return sd.info.HWFilter }

// EstimatedBytes returns the stream's best flow-size estimate: the payload
// counter or, when the NIC dropped the flow's middle (subzero copy), the
// span implied by the FIN sequence number (paper §5.5).
func (sd *Stream) EstimatedBytes() uint64 { return sd.info.EstimatedBytes }

// ProcessingTime returns the cumulative wall-clock time this worker has
// spent in callbacks for this stream before the current one
// (sd->processing_time), letting applications spot streams that trigger
// algorithmic-complexity attacks. A callback is timed from the end of the
// previous one on the same worker — one clock read per event — so the
// figure includes its dispatch.
func (sd *Stream) ProcessingTime() time.Duration { return sd.procCum }

// NextPacket returns the next per-packet record of the current chunk, or
// nil when exhausted. The socket must have been created with NeedPkts.
func (sd *Stream) NextPacket() *PacketInfo {
	for sd.pktIdx < len(sd.pkts) {
		rec := sd.pkts[sd.pktIdx]
		sd.pktIdx++
		pi := &PacketInfo{
			Timestamp: rec.TS,
			WireLen:   rec.WireLen,
			CapLen:    rec.CapLen,
			Seq:       rec.Seq,
			Flags:     rec.Flags,
		}
		if rec.Len > 0 && int(rec.Off+rec.Len) <= len(sd.Data) {
			pi.Payload = sd.Data[rec.Off : rec.Off+rec.Len]
		}
		return pi
	}
	return nil
}

// SetCutoff changes this stream's cutoff (scap_set_stream_cutoff).
func (sd *Stream) SetCutoff(cutoff int64) {
	sd.control(core.Ctrl{Op: core.OpSetCutoff, Value: cutoff})
}

// SetPriority changes the connection's PPL priority for both directions
// (scap_set_stream_priority).
func (sd *Stream) SetPriority(priority int) {
	sd.control(core.Ctrl{Op: core.OpSetPriority, Value: int64(priority)})
}

// Discard stops all data collection for this stream; statistics continue
// (scap_discard_stream).
func (sd *Stream) Discard() {
	sd.control(core.Ctrl{Op: core.OpDiscard})
}

// SetChunkSize / SetOverlapSize / SetFlushTimeout / SetInactivityTimeout
// update per-stream parameters (scap_set_stream_parameter).
func (sd *Stream) SetChunkSize(n int) {
	sd.control(core.Ctrl{Op: core.OpSetParam, Param: core.ParamChunkSize, Value: int64(n)})
}

// SetOverlapSize updates the per-stream chunk overlap.
func (sd *Stream) SetOverlapSize(n int) {
	sd.control(core.Ctrl{Op: core.OpSetParam, Param: core.ParamOverlapSize, Value: int64(n)})
}

// SetFlushTimeout updates the per-stream flush timeout (ns).
func (sd *Stream) SetFlushTimeout(ns int64) {
	sd.control(core.Ctrl{Op: core.OpSetParam, Param: core.ParamFlushTimeout, Value: ns})
}

// SetInactivityTimeout updates the per-stream inactivity timeout (ns).
func (sd *Stream) SetInactivityTimeout(ns int64) {
	sd.control(core.Ctrl{Op: core.OpSetParam, Param: core.ParamInactivityTimeout, Value: ns})
}

// KeepChunk keeps the current chunk in memory so the next data event
// delivers it merged with the following data (scap_keep_stream_chunk).
// Only meaningful inside a data callback. The chunk's arena block (and its
// stream-memory charge) is retained by the worker instead of being
// recycled: the next chunk's bytes are appended into the kept block's free
// room — blocks carry headroom above the chunk size for exactly this — and
// the merge moves to the heap only if it outgrows the block.
func (sd *Stream) KeepChunk() { sd.keep = true }

func (sd *Stream) control(c core.Ctrl) {
	if sd.engine == nil || sd.raw == nil {
		return
	}
	c.Stream = sd.raw
	c.ID = sd.info.ID
	sd.engine.Control(c)
}
