// Package nic simulates the capture-relevant feature set of a modern 10GbE
// controller (modeled on the Intel 82599 the paper uses): multiple receive
// queues, Toeplitz receive-side scaling with a symmetric key, and a
// capacity-limited flow-director (FDIR) filter table whose filters can
// redirect flows to queues or drop packets before they are ever delivered
// to memory — the mechanism behind Scap's "subzero packet copy".
package nic

import (
	"encoding/binary"
	"net/netip"

	"scap/internal/pkt"
)

// RSSKeySize is the conventional RSS secret-key length in bytes.
const RSSKeySize = 40

// RSSKey is the Toeplitz secret key.
type RSSKey [RSSKeySize]byte

// SymmetricRSSKey returns a key consisting of a repeated 16-bit pattern.
// Woo & Park (KAIST TR 2012) observe that such keys make the Toeplitz hash
// symmetric for (srcIP,dstIP,srcPort,dstPort) swaps, so both directions of
// a TCP connection land on the same queue — a property Scap relies on to
// keep each connection's processing on one core.
func SymmetricRSSKey(pattern uint16) RSSKey {
	var k RSSKey
	for i := 0; i < RSSKeySize; i += 2 {
		k[i] = byte(pattern >> 8)
		k[i+1] = byte(pattern)
	}
	return k
}

// DefaultRSSKey is the Microsoft verification-suite key, used when symmetry
// is not required.
var DefaultRSSKey = RSSKey{
	0x6d, 0x5a, 0x56, 0xda, 0x25, 0x5b, 0x0e, 0xc2,
	0x41, 0x67, 0x25, 0x3d, 0x43, 0xa3, 0x8f, 0xb0,
	0xd0, 0xca, 0x2b, 0xcb, 0xae, 0x7b, 0x30, 0xb4,
	0x77, 0xcb, 0x2d, 0xa3, 0x80, 0x30, 0xf2, 0x0c,
	0x6a, 0x42, 0xb7, 0x3b, 0xbe, 0xac, 0x01, 0xfa,
}

// Toeplitz computes the 32-bit Toeplitz hash of input under key, bit-exact
// with the RSS specification: for every set bit of the input (MSB first)
// the hash XORs the 32-bit key window starting at that bit position.
func Toeplitz(key *RSSKey, input []byte) uint32 {
	var hash uint32
	// window holds the key bits currently aligned with the input bit; it is
	// advanced one bit per input bit.
	window := uint32(key[0])<<24 | uint32(key[1])<<16 | uint32(key[2])<<8 | uint32(key[3])
	next := 4 // index of the next key byte to shift in
	bitsLeft := 8
	cur := key[next]
	for _, b := range input {
		for bit := 7; bit >= 0; bit-- {
			if b&(1<<uint(bit)) != 0 {
				hash ^= window
			}
			window = window<<1 | uint32(cur>>7)
			cur <<= 1
			bitsLeft--
			if bitsLeft == 0 {
				next++
				if next < RSSKeySize {
					cur = key[next]
				} else {
					cur = 0
				}
				bitsLeft = 8
			}
		}
	}
	return hash
}

// RSSHash computes the RSS hash over the tuple the 82599 uses for TCP/UDP
// over IPv4/IPv6: srcIP, dstIP, srcPort, dstPort in network order. For
// non-TCP/UDP packets the ports are omitted (L3-only hashing).
//
// Toeplitz and RSSHash are the bit-serial specification and the test
// oracle; packet paths hash through the per-key rssTable.
func RSSHash(key *RSSKey, srcIP, dstIP netip.Addr, srcPort, dstPort uint16, hasPorts bool) uint32 {
	var buf [rssInputMax]byte
	return Toeplitz(key, buf[:rssTuple(&buf, srcIP, dstIP, srcPort, dstPort, hasPorts)])
}

// rssInputMax is the longest RSS input: two IPv6 addresses and two ports.
const rssInputMax = 36

// rssTuple serializes the RSS input into buf and returns its length.
func rssTuple(buf *[rssInputMax]byte, srcIP, dstIP netip.Addr, srcPort, dstPort uint16, hasPorts bool) int {
	n := 0
	for _, a := range [2]netip.Addr{srcIP, dstIP} {
		if a.Is4() {
			*(*[4]byte)(buf[n:]) = a.As4()
			n += 4
		} else {
			*(*[16]byte)(buf[n:]) = a.As16()
			n += 16
		}
	}
	if hasPorts {
		binary.BigEndian.PutUint16(buf[n:], srcPort)
		binary.BigEndian.PutUint16(buf[n+2:], dstPort)
		n += 4
	}
	return n
}

// rssTable is one key's Toeplitz hash as a lookup table. The hash is linear
// over GF(2): the hash of an input is the XOR of the hashes of its bytes
// taken alone at their offsets. Entry [i][b] is the contribution of byte
// value b at input offset i, so hashing costs one load and one XOR per
// input byte (12 for an IPv4 TCP/UDP tuple) where the bit-serial form
// walks 8 bits per byte. 36 KB per key, built once per device.
type rssTable [rssInputMax][256]uint32

func newRSSTable(key *RSSKey) *rssTable {
	t := new(rssTable)
	var input [rssInputMax]byte
	for off := range t {
		for bit := 0; bit < 8; bit++ {
			// The specification gives the hash of this one input bit; every
			// byte value whose highest set bit it is follows from the value
			// without that bit, already in the table.
			input[off] = 1 << bit
			single := Toeplitz(key, input[:off+1])
			for b := 1 << bit; b < 2<<bit; b++ {
				t[off][b] = t[off][b^1<<bit] ^ single
			}
		}
		input[off] = 0
	}
	return t
}

// hash returns the Toeplitz hash of input, at most rssInputMax bytes.
func (t *rssTable) hash(input []byte) uint32 {
	var h uint32
	for i, b := range input {
		h ^= t[i][b]
	}
	return h
}

// queue picks the receive queue for a flow key, RSSHash's tuple under the
// table: the 82599 indexes a 128-entry indirection table with the low 7
// bits of the hash; with an identity-style table this reduces to a modulo.
func (t *rssTable) queue(k *pkt.FlowKey, queues int) int {
	var buf [rssInputMax]byte
	hasPorts := k.Proto == pkt.ProtoTCP || k.Proto == pkt.ProtoUDP
	n := rssTuple(&buf, k.SrcIP, k.DstIP, k.SrcPort, k.DstPort, hasPorts)
	return int(t.hash(buf[:n])&0x7f) % queues
}
