package flowtab

import (
	"scap/internal/pkt"
	"scap/internal/reassembly"
)

// Info is a value-copy of a stream descriptor taken by the kernel-path
// engine right before an event is enqueued. The paper maintains a second
// stream_t instance for exactly this reason (§5.4): the kernel keeps
// mutating the live record while user level reads, so each event carries a
// consistent snapshot instead.
type Info struct {
	ID uint64
	// Ref is the record's index in its table's slab: stable while the
	// stream lives, reused (under a new ID) after it is recycled. Consumers
	// index per-stream side arrays by it instead of hashing the ID.
	Ref    uint32
	Key    pkt.FlowKey
	Dir    pkt.Direction
	Status Status
	Error  reassembly.Flags
	Stats  Stats

	Cutoff       int64
	Priority     int
	ChunkSize    int
	OverlapSize  int
	FlushTimeout int64

	// Chunks is the number of data chunks delivered so far (including the
	// one carried by the current event, for data events).
	Chunks uint64
	// OppositeID is the ID of the reverse-direction stream, 0 if untracked.
	OppositeID uint64
	// HWFilter reports that packets of this stream are being dropped at
	// the NIC by an FDIR filter pair.
	HWFilter bool
	// EstimatedBytes is the flow size estimate: the payload counter, or —
	// when an FDIR filter suppressed the flow's middle — the span implied
	// by the FIN sequence number (paper §5.5).
	EstimatedBytes uint64
}

// Snapshot captures the current descriptor state. chunks is the delivered
// chunk count maintained by the engine.
func (s *Stream) Snapshot(chunks uint64) Info {
	var info Info
	s.SnapshotInto(&info, chunks)
	return info
}

// SnapshotInto is Snapshot written through a pointer: the engine fills the
// Info of a staged event in place instead of building a 224-byte value and
// copying it there. Every field of *info is overwritten.
func (s *Stream) SnapshotInto(info *Info, chunks uint64) {
	info.ID = s.ID
	info.Ref = s.ref
	info.Key = s.Key
	info.Dir = s.Dir
	info.Status = s.Status
	info.Error = s.Error
	info.Stats = s.Stats
	info.Cutoff = s.Cutoff
	info.Priority = s.Priority
	info.ChunkSize = s.ChunkSize
	info.OverlapSize = s.OverlapSize
	info.FlushTimeout = s.FlushTimeout
	info.Chunks = chunks
	info.OppositeID = 0
	info.HWFilter = s.HWFilter
	info.EstimatedBytes = s.EstimatedBytes()
	if s.Asm != nil {
		info.Error |= s.Asm.Flags()
	}
	if s.Opposite != nil {
		info.OppositeID = s.Opposite.ID
	}
}
