package pkt

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net/netip"
)

// Decode errors. Errors wrap ErrTruncated or ErrUnsupported so callers can
// classify failures without string matching.
var (
	ErrTruncated   = errors.New("pkt: truncated frame")
	ErrUnsupported = errors.New("pkt: unsupported protocol")
)

// Decode parses an Ethernet frame into p without allocating. Existing fields
// of p are overwritten; Data and Payload alias data. WireLen is set to
// len(data); callers capturing with a snaplen should fix it up afterwards.
//
// Fragmented IPv4 packets decode successfully with IsFragment() true and the
// transport fields left zero (the fragment payload, including the embedded
// transport header of the first fragment, is in Payload); reassembly is the
// caller's job.
func Decode(data []byte, p *Packet) error {
	// Reset in place: zeroing *p and storing three fields compiles to a
	// clear plus stores, where assigning a composite literal builds a
	// ~200-byte temporary and copies it over *p.
	ts := p.Timestamp
	*p = Packet{}
	p.Timestamp, p.Data, p.WireLen = ts, data, len(data)
	if len(data) < EthernetHeaderLen {
		return fmt.Errorf("%w: %d bytes for ethernet", ErrTruncated, len(data))
	}
	p.EtherType = binary.BigEndian.Uint16(data[12:14])
	off := EthernetHeaderLen
	// Unwrap up to two VLAN tags (802.1Q, optionally nested in 802.1ad).
	for tags := 0; tags < 2 && (p.EtherType == EtherTypeVLAN || p.EtherType == EtherTypeQinQ); tags++ {
		if len(data) < off+4 {
			return fmt.Errorf("%w: %d bytes for vlan tag", ErrTruncated, len(data))
		}
		tci := binary.BigEndian.Uint16(data[off : off+2])
		if !p.HasVLAN {
			p.HasVLAN = true
			p.VLANID = tci & 0x0fff
		}
		p.EtherType = binary.BigEndian.Uint16(data[off+2 : off+4])
		off += 4
	}
	switch p.EtherType {
	case EtherTypeIPv4:
		return decodeIPv4(data[off:], off, p)
	case EtherTypeIPv6:
		return decodeIPv6(data[off:], off, p)
	}
	return fmt.Errorf("%w: ethertype %#04x", ErrUnsupported, p.EtherType)
}

func decodeIPv4(b []byte, base int, p *Packet) error {
	if len(b) < IPv4MinHeaderLen {
		return fmt.Errorf("%w: %d bytes for ipv4", ErrTruncated, len(b))
	}
	vihl := b[0]
	if vihl>>4 != 4 {
		return fmt.Errorf("%w: ip version %d in ipv4 frame", ErrUnsupported, vihl>>4)
	}
	ihl := int(vihl&0x0f) * 4
	if ihl < IPv4MinHeaderLen || len(b) < ihl {
		return fmt.Errorf("%w: ihl %d", ErrTruncated, ihl)
	}
	totalLen := int(binary.BigEndian.Uint16(b[2:4]))
	if totalLen < ihl || totalLen > len(b) {
		// Tolerate Ethernet padding: clamp to the frame, reject shorter
		// than the header.
		if totalLen < ihl {
			return fmt.Errorf("%w: total length %d < ihl %d", ErrTruncated, totalLen, ihl)
		}
		totalLen = len(b)
	}
	p.IPVersion = 4
	p.TTL = b[8]
	p.IPID = binary.BigEndian.Uint16(b[4:6])
	fragField := binary.BigEndian.Uint16(b[6:8])
	p.MoreFrags = fragField&0x2000 != 0
	p.FragOffset = int(fragField&0x1fff) * 8
	proto := b[9]
	src, _ := netip.AddrFromSlice(b[12:16])
	dst, _ := netip.AddrFromSlice(b[16:20])
	p.Key = FlowKey{SrcIP: src, DstIP: dst, Proto: proto}
	p.L4Offset = base + ihl
	l4 := b[ihl:totalLen]
	if p.IsFragment() {
		// Transport header only present (and only parseable) in the first
		// fragment, and streams must not consume it before defragmentation.
		p.Payload = l4
		return nil
	}
	return decodeL4(l4, p)
}

func decodeIPv6(b []byte, base int, p *Packet) error {
	if len(b) < IPv6HeaderLen {
		return fmt.Errorf("%w: %d bytes for ipv6", ErrTruncated, len(b))
	}
	if b[0]>>4 != 6 {
		return fmt.Errorf("%w: ip version %d in ipv6 frame", ErrUnsupported, b[0]>>4)
	}
	payloadLen := int(binary.BigEndian.Uint16(b[4:6]))
	if IPv6HeaderLen+payloadLen > len(b) {
		payloadLen = len(b) - IPv6HeaderLen
	}
	p.IPVersion = 6
	p.TTL = b[7]
	next := b[6]
	src, _ := netip.AddrFromSlice(b[8:24])
	dst, _ := netip.AddrFromSlice(b[24:40])
	p.Key = FlowKey{SrcIP: src, DstIP: dst}
	off := IPv6HeaderLen
	end := IPv6HeaderLen + payloadLen
	// Skip a bounded chain of extension headers.
	for i := 0; i < 8; i++ {
		switch next {
		case 0, 43, 60: // hop-by-hop, routing, destination options
			if off+8 > end {
				return fmt.Errorf("%w: ipv6 extension header", ErrTruncated)
			}
			next = b[off]
			off += int(b[off+1])*8 + 8
			if off > end {
				return fmt.Errorf("%w: ipv6 extension header length", ErrTruncated)
			}
		case 44: // fragment header
			if off+8 > end {
				return fmt.Errorf("%w: ipv6 fragment header", ErrTruncated)
			}
			fo := binary.BigEndian.Uint16(b[off+2 : off+4])
			p.FragOffset = int(fo &^ 0x7) // offset is in units of 8 bytes, low 3 bits are flags/res
			p.MoreFrags = fo&0x1 != 0
			next = b[off]
			off += 8
			if p.IsFragment() {
				p.Key.Proto = next
				p.Payload = b[off:end]
				p.L4Offset = base + off
				return nil
			}
		default:
			p.Key.Proto = next
			p.L4Offset = base + off
			return decodeL4(b[off:end], p)
		}
	}
	return fmt.Errorf("%w: ipv6 extension header chain too long", ErrUnsupported)
}

// DecodeTransport parses a transport header (selected by p.Key.Proto) from
// b into p, as Decode would. It exists for defragmentation: after IP
// fragments are merged, the reassembled datagram's payload starts with the
// transport header, which was unparseable per-fragment.
func DecodeTransport(b []byte, p *Packet) error {
	return decodeL4(b, p)
}

func decodeL4(b []byte, p *Packet) error {
	switch p.Key.Proto {
	case ProtoTCP:
		if len(b) < TCPMinHeaderLen {
			return fmt.Errorf("%w: %d bytes for tcp", ErrTruncated, len(b))
		}
		p.Key.SrcPort = binary.BigEndian.Uint16(b[0:2])
		p.Key.DstPort = binary.BigEndian.Uint16(b[2:4])
		p.Seq = binary.BigEndian.Uint32(b[4:8])
		p.Ack = binary.BigEndian.Uint32(b[8:12])
		dataOff := int(b[12]>>4) * 4
		if dataOff < TCPMinHeaderLen || dataOff > len(b) {
			return fmt.Errorf("%w: tcp data offset %d", ErrTruncated, dataOff)
		}
		p.TCPFlags = b[13] & 0x3f
		p.Window = binary.BigEndian.Uint16(b[14:16])
		p.Payload = b[dataOff:]
		return nil
	case ProtoUDP:
		if len(b) < UDPHeaderLen {
			return fmt.Errorf("%w: %d bytes for udp", ErrTruncated, len(b))
		}
		p.Key.SrcPort = binary.BigEndian.Uint16(b[0:2])
		p.Key.DstPort = binary.BigEndian.Uint16(b[2:4])
		ulen := int(binary.BigEndian.Uint16(b[4:6]))
		if ulen < UDPHeaderLen || ulen > len(b) {
			ulen = len(b)
		}
		p.Payload = b[UDPHeaderLen:ulen]
		return nil
	default:
		// Other transports carry no ports; deliver the raw payload.
		p.Payload = b
		return nil
	}
}
