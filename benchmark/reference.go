package main

import (
	"fmt"

	"scap/internal/pkt"
)

// refStream is the reference reassembly of one stream direction: what a
// correct capture delivers for it. TCP bytes are placed by their offset
// from the SYN (seq − ISN − 1) and the first writer of an offset wins; UDP
// payloads concatenate in arrival order. Bytes are hashed as they become
// contiguous, so only out-of-order segments are held (by reference into
// the frame).
type refStream struct {
	tcp    bool
	hasISN bool
	isn    uint32
	next   uint64 // contiguous bytes so far
	sum    uint32 // streamSum of those bytes
	stash  []refSeg
	fin    bool

	// want/wantSum are the expected delivery: the whole stream, or its
	// first cutoff bytes.
	want    uint64
	wantSum uint32
}

type refSeg struct {
	off  uint64
	data []byte
}

// reference holds the expected output for one pass over a frame slice.
type reference struct {
	cutoff  int64
	streams map[pkt.FlowKey]*refStream

	tcpDirs    int
	udpDirs    int
	tcpBytes   uint64 // Σ want over TCP directions
	udpBytes   uint64 // Σ want over UDP directions
	incomplete int    // TCP directions without SYN or FIN, or with a hole

	// closeCum[k] is how many TCP directions frames[:k] close: the engine
	// ends both directions of a connection at its second FIN. The injector
	// reads it to know how many terminations it has asked for so far.
	closeCum []uint32
}

// events estimates the events one pass puts through the event rings: a
// creation and a termination per stream direction plus a data event per
// chunkSize bytes.
func (ref *reference) events(chunkSize int) uint64 {
	var n uint64
	for _, s := range ref.streams {
		n += 2 + (s.want+uint64(chunkSize)-1)/uint64(chunkSize)
	}
	return n
}

func (s *refStream) add(off uint64, data []byte, cutoff int64) {
	if off > s.next {
		s.stash = append(s.stash, refSeg{off, data})
		return
	}
	s.emit(off, data, cutoff)
	for progressed := true; progressed && len(s.stash) > 0; {
		progressed = false
		for i := 0; i < len(s.stash); i++ {
			if sg := s.stash[i]; sg.off <= s.next {
				s.stash = append(s.stash[:i], s.stash[i+1:]...)
				s.emit(sg.off, sg.data, cutoff)
				progressed = true
				break
			}
		}
	}
}

// emit appends the part of data at or beyond the contiguous point.
func (s *refStream) emit(off uint64, data []byte, cutoff int64) {
	end := off + uint64(len(data))
	if end <= s.next {
		return // wholly a duplicate: the first writer won
	}
	data = data[s.next-off:]
	if cutoff >= 0 && s.next < uint64(cutoff) {
		keep := min(uint64(len(data)), uint64(cutoff)-s.next)
		s.wantSum = streamSum(s.wantSum, data[:keep])
		s.want += keep
	}
	s.sum = streamSum(s.sum, data)
	s.next = end
}

// buildReference decodes frames once and computes, per stream direction,
// the bytes a loss-free capture delivers (clamped to cutoff when >= 0).
func buildReference(frames [][]byte, cutoff int64) (*reference, error) {
	ref := &reference{cutoff: cutoff, streams: make(map[pkt.FlowKey]*refStream), closeCum: make([]uint32, len(frames)+1)}
	var p pkt.Packet
	for i, f := range frames {
		ref.closeCum[i+1] = ref.closeCum[i]
		if err := pkt.Decode(f, &p); err != nil {
			return nil, fmt.Errorf("reference: frame %d: %w", i, err)
		}
		s := ref.streams[p.Key]
		if s == nil {
			s = &refStream{tcp: p.Key.Proto == pkt.ProtoTCP}
			ref.streams[p.Key] = s
		}
		if !s.tcp {
			s.emit(s.next, p.Payload, cutoff)
			continue
		}
		if p.TCPFlags&pkt.FlagSYN != 0 {
			s.hasISN, s.isn = true, p.Seq
			continue
		}
		if !s.hasISN {
			return nil, fmt.Errorf("reference: frame %d: %v data before SYN", i, p.Key)
		}
		if len(p.Payload) > 0 {
			s.add(uint64(p.Seq-s.isn-1), p.Payload, cutoff)
		}
		if p.TCPFlags&(pkt.FlagFIN|pkt.FlagRST) != 0 && !s.fin {
			s.fin = true
			if opp := ref.streams[p.Key.Reverse()]; opp != nil && opp.fin {
				ref.closeCum[i+1] += 2
			}
		}
	}
	for _, s := range ref.streams {
		if cutoff < 0 {
			s.want, s.wantSum = s.next, s.sum
		}
		if s.tcp {
			ref.tcpDirs++
			ref.tcpBytes += s.want
			if !s.fin || len(s.stash) > 0 {
				ref.incomplete++
			}
		} else {
			ref.udpDirs++
			ref.udpBytes += s.want
		}
	}
	if ref.incomplete == 0 && int(ref.closeCum[len(frames)]) != ref.tcpDirs {
		return nil, fmt.Errorf("reference: frames close %d TCP directions of %d", ref.closeCum[len(frames)], ref.tcpDirs)
	}
	return ref, nil
}
