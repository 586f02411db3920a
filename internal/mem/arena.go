// Arena-backed block allocator: the physical half of the paper's stream
// memory (§2.2). The Manager's byte accounting (Admit/Reserve/Release) stays
// the PPL admission front-end; the arena is what makes MemorySize a real
// bound — every chunk's bytes live in one fixed-size block carved from a
// budget-sized arena, recycled through per-core free-lists instead of the
// garbage collector.
//
// Concurrency model (mirrors the engine/worker split):
//
//   - Each core's kernel-path engine is the single owner of that core's
//     local free-stack: AllocBlock and FreeBlock touch it without atomics.
//   - The worker draining a core's event ring is the single producer of
//     that core's SPSC return ring (ReturnBlocks); the owning engine is the
//     single consumer (refill during AllocBlock). Cursor atomics carry the
//     happens-before edges, exactly like the event ring.
//   - The global free chain is a tag-versioned Treiber stack shared by all
//     cores: refill pops a batch, spill pushes a batch, each one CAS.
//
// The arena itself is segmented and lazily committed: block descriptors and
// payload storage materialize one segment at a time as the frontier advances,
// so a 1 GiB budget does not cost 1 GiB of touched memory in short runs. A
// background committer keeps a window of segments zeroed ahead of the
// frontier (the paper's startup pre-allocation, made incremental), so in
// steady state the capture path never pays the commit cost itself.
package mem

import (
	"sync"
	"sync/atomic"
)

// Handle names one arena block. The zero value (NoBlock) means "no block",
// so zero-valued events and control messages are always safe to release.
// Internally a handle is the block index plus one.
type Handle int32

// NoBlock is the null block handle.
const NoBlock Handle = 0

const (
	// DefaultBlockSize is the block granularity when Config.BlockSize is
	// unset: headroom for the default 16 KiB chunk (see core.ArenaBlockSize).
	DefaultBlockSize = 32 << 10
	// minBlockSize floors the configured granularity so tiny chunk sizes do
	// not explode the block count.
	minBlockSize = 1 << 10
	// maxBlocks caps the descriptor table (4M blocks covers a 4 GiB budget
	// at the minimum block size).
	maxBlocks = 1 << 22

	// segShift/segBlocks size one lazily-committed arena segment.
	segShift  = 8
	segBlocks = 1 << segShift

	// localCap bounds a core's private free-stack; beyond it, half spills
	// to the global chain so idle cores do not hoard blocks.
	localCap = 128
	// xferBatch is how many blocks move between a core cache and the
	// global chain per refill or spill.
	xferBatch = 32
	// ringCap (a power of two) sizes the per-core SPSC return ring. A full
	// ring spills to the global chain, so capacity only bounds the fast path.
	ringCap = 1 << 10

	// commitAhead is how many segments the background committer keeps zeroed
	// beyond the frontier's segment, bounding both the startup commit of an
	// idle socket and the odds of the capture path ever committing inline.
	commitAhead = 4
)

// segment is one lazily-committed slice of the arena: payload storage plus
// the per-block descriptor columns.
type segment struct {
	data []byte
	// links holds each block's successor on the global free chain
	// (handle-encoded: index+1, 0 terminates). Atomic because a chain
	// walker may race a link's reuse; the chain head's tag invalidates the
	// walk, but the read itself must be well-defined.
	links []atomic.Int32
	// attach holds each block's recyclable attachment (SetBlockAttachment).
	// Only the block's current owner touches it; ownership transfer through
	// the free structures carries the happens-before edge.
	attach []any
}

// coreCache is one core's block cache: the engine-owned local stack and the
// worker-fed SPSC return ring. Padding keeps the two sides' cursors on
// separate cache lines.
//
//scap:spsc producer=worker consumer=engine
type coreCache struct {
	// local is the engine-private free-stack (single goroutine, no atomics);
	// depth mirrors len(local) for metrics readers.
	local []int32
	depth atomic.Int32
	// rhead is the return ring's consumer cursor (the engine).
	rhead atomic.Uint64
	_     [64]byte
	// rtail is the producer cursor (the worker returning blocks).
	rtail atomic.Uint64
	_     [64]byte
	ring  []int32
}

// arena is the block allocator state hanging off a Manager.
type arena struct {
	blockSize int
	nblocks   int32

	// segMu guards segment creation; segs entries flip nil→pointer once and
	// are then immutable, so readers go through the atomic pointer only.
	segMu sync.Mutex
	segs  []atomic.Pointer[segment]

	// frontier is the lowest never-handed-out block index; inUse counts
	// blocks currently held by callers (chunks in flight or under
	// construction).
	frontier atomic.Int32
	inUse    atomic.Int64

	// ghead is the global free chain: tag<<32 | head handle. The tag
	// increments on every successful push or pop, defusing ABA on the CAS.
	ghead  atomic.Uint64
	gcount atomic.Int64

	// committed counts materialized segments (for metrics; bumped under
	// segMu). kick wakes the background committer when the frontier nears
	// its window; stopped + kick ends it, done confirms exit.
	committed atomic.Int32
	kick      chan struct{}
	stopped   atomic.Bool
	done      chan struct{}

	cores []coreCache
}

func newArena(size int64, blockSize, cores int) *arena {
	nb := size / int64(blockSize)
	if nb < 1 {
		nb = 1
	}
	if nb > maxBlocks {
		nb = maxBlocks
	}
	if cores < 1 {
		cores = 1
	}
	a := &arena{blockSize: blockSize, nblocks: int32(nb)}
	a.segs = make([]atomic.Pointer[segment], (int(nb)+segBlocks-1)/segBlocks)
	a.cores = make([]coreCache, cores)
	for i := range a.cores {
		a.cores[i].local = make([]int32, 0, localCap)
		a.cores[i].ring = make([]int32, ringCap)
	}
	a.kick = make(chan struct{}, 1)
	a.done = make(chan struct{})
	go a.committer()
	return a
}

// committer is the background segment-zeroing goroutine: it keeps up to
// commitAhead segments materialized beyond the frontier's segment, then
// parks until takeFrontier kicks it (or the arena shuts down). The capture
// path only commits inline (seg → growSeg) if allocation outruns this
// goroutine.
//
//scap:goroutine committer
func (a *arena) committer() {
	defer close(a.done)
	si := 0
	for {
		if a.stopped.Load() {
			return
		}
		target := int(a.frontier.Load())>>segShift + 1 + commitAhead
		if target > len(a.segs) {
			target = len(a.segs)
		}
		for si < target {
			if a.stopped.Load() {
				return
			}
			a.growSeg(si)
			si++
		}
		if si >= len(a.segs) {
			return
		}
		<-a.kick
	}
}

// shutdown stops the background committer and waits for it to exit.
// Idempotent; safe concurrently with allocation (remaining commits just
// happen inline).
func (a *arena) shutdown() {
	a.stopped.Store(true)
	select {
	case a.kick <- struct{}{}:
	default:
	}
	<-a.done
}

// cache returns core's cache, or nil for out-of-range cores (standalone
// engines beyond Config.Cores fall back to the shared chain, which is safe
// from any goroutine).
func (a *arena) cache(core int) *coreCache {
	if core < 0 || core >= len(a.cores) {
		return nil
	}
	return &a.cores[core]
}

// seg returns the segment holding block idx, committing it on first touch.
func (a *arena) seg(idx int32) *segment {
	si := int(idx) >> segShift
	if s := a.segs[si].Load(); s != nil {
		return s
	}
	return a.growSeg(si)
}

func (a *arena) growSeg(si int) *segment {
	//scaplint:ignore hotpathblock audited: lazy segment commit, reached once per segment on first touch; seg's atomic load answers every later lookup
	a.segMu.Lock()
	defer a.segMu.Unlock()
	if s := a.segs[si].Load(); s != nil {
		return s
	}
	// The last segment only covers the blocks the budget actually has.
	n := int(a.nblocks) - si*segBlocks
	if n > segBlocks {
		n = segBlocks
	}
	s := &segment{
		data:   make([]byte, n*a.blockSize),
		links:  make([]atomic.Int32, n),
		attach: make([]any, n),
	}
	a.segs[si].Store(s)
	a.committed.Add(1)
	return s
}

// bytes returns block idx's full-capacity storage view.
func (a *arena) bytes(idx int32) []byte {
	s := a.seg(idx)
	off := (int(idx) & (segBlocks - 1)) * a.blockSize
	return s.data[off : off+a.blockSize : off+a.blockSize]
}

func (a *arena) link(idx int32) *atomic.Int32 {
	return &a.seg(idx).links[int(idx)&(segBlocks-1)]
}

const handleBits = (1 << 32) - 1

// pushGlobal links the given block indices into a chain and prepends it to
// the global free chain with one tagged CAS.
func (a *arena) pushGlobal(blocks []int32) {
	n := len(blocks)
	if n == 0 {
		return
	}
	for i := 0; i < n-1; i++ {
		a.link(blocks[i]).Store(blocks[i+1] + 1)
	}
	last := a.link(blocks[n-1])
	first := uint64(uint32(blocks[0] + 1))
	for {
		old := a.ghead.Load()
		last.Store(int32(old & handleBits))
		if a.ghead.CompareAndSwap(old, (old>>32+1)<<32|first) {
			a.gcount.Add(int64(n))
			return
		}
	}
}

// popGlobal pops up to max block indices off the global chain into dst.
// A racing push or pop bumps the head's tag and fails the CAS, so a walk
// over links that were concurrently recycled is retried, never committed.
func (a *arena) popGlobal(dst []int32, max int) int {
	for {
		old := a.ghead.Load()
		cur := int32(old & handleBits)
		if cur == 0 {
			return 0
		}
		n := 0
		for n < max && cur != 0 {
			dst[n] = cur - 1
			n++
			cur = a.link(cur - 1).Load()
		}
		if a.ghead.CompareAndSwap(old, (old>>32+1)<<32|uint64(uint32(cur))) {
			a.gcount.Add(int64(-n))
			return n
		}
	}
}

// takeFrontier claims up to want never-used blocks, returning the first
// index and the count (0 when the arena is fully committed).
func (a *arena) takeFrontier(want int32) (int32, int32) {
	for {
		f := a.frontier.Load()
		if f >= a.nblocks {
			return 0, 0
		}
		take := want
		if f+take > a.nblocks {
			take = a.nblocks - f
		}
		if a.frontier.CompareAndSwap(f, f+take) {
			// Nudge the committer to keep its zeroed window ahead of the
			// new frontier. Non-blocking: a full kick channel means it is
			// already awake.
			select {
			case a.kick <- struct{}{}:
			default:
			}
			return f, take
		}
	}
}

// drainRing moves returned blocks from the core's SPSC ring into its local
// stack. Consumer side: only the engine owning core calls this.
//
//scap:consume coreCache
func (a *arena) drainRing(c *coreCache) {
	h := c.rhead.Load()
	t := c.rtail.Load()
	for h < t && len(c.local) < cap(c.local) {
		c.local = append(c.local, c.ring[h&(ringCap-1)])
		h++
	}
	c.rhead.Store(h)
	c.depth.Store(int32(len(c.local)))
}

// ringDepth reports how many returned blocks wait in the core's ring (for
// metrics; racy snapshot).
func (c *coreCache) ringDepth() int64 {
	t := c.rtail.Load()
	h := c.rhead.Load()
	if t <= h {
		return 0
	}
	return int64(t - h)
}

// AllocBlock grabs a free block for the given core and returns its handle
// plus the full-capacity storage view. It returns NoBlock when the arena is
// exhausted — the physical MemorySize bound. Only the engine owning core may
// call it (single-writer local stack); out-of-range cores use the shared
// chain.
//
//scap:hotpath
//scap:consume coreCache
func (m *Manager) AllocBlock(core int) (Handle, []byte) {
	a := m.arena
	c := a.cache(core)
	if c != nil {
		if n := len(c.local); n > 0 {
			idx := c.local[n-1]
			c.local = c.local[:n-1]
			c.depth.Store(int32(n - 1))
			a.inUse.Add(1)
			return Handle(idx + 1), a.bytes(idx)
		}
	}
	return m.allocSlow(c)
}

// allocSlow refills the core's stack from the return ring, the global chain,
// or the arena frontier, in that order. Cold: runs only on an empty stack.
func (m *Manager) allocSlow(c *coreCache) (Handle, []byte) {
	a := m.arena
	if c == nil {
		var one [1]int32
		if a.popGlobal(one[:], 1) == 0 {
			f, n := a.takeFrontier(1)
			if n == 0 {
				return NoBlock, nil
			}
			one[0] = f
		}
		a.inUse.Add(1)
		return Handle(one[0] + 1), a.bytes(one[0])
	}
	a.drainRing(c)
	if len(c.local) == 0 {
		if n := a.popGlobal(c.local[:xferBatch], xferBatch); n > 0 {
			c.local = c.local[:n]
		}
	}
	if len(c.local) == 0 {
		f, n := a.takeFrontier(xferBatch)
		if n == 0 {
			c.depth.Store(0)
			return NoBlock, nil
		}
		// Stack them high-to-low so allocation proceeds in address order.
		c.local = c.local[:n]
		for i := int32(0); i < n; i++ {
			c.local[i] = f + n - 1 - i
		}
	}
	n := len(c.local)
	idx := c.local[n-1]
	c.local = c.local[:n-1]
	c.depth.Store(int32(n - 1))
	a.inUse.Add(1)
	return Handle(idx + 1), a.bytes(idx)
}

// FreeBlock returns a block to the core's free-stack. Engine side only (the
// same single-writer rule as AllocBlock); the worker path uses ReturnBlocks.
//
//scap:hotpath
//scap:consume coreCache
func (m *Manager) FreeBlock(core int, h Handle) {
	if h == NoBlock {
		return
	}
	a := m.arena
	c := a.cache(core)
	if c == nil || len(c.local) == cap(c.local) {
		m.freeSlow(c, h)
		return
	}
	n := len(c.local)
	c.local = c.local[:n+1]
	c.local[n] = int32(h - 1)
	c.depth.Store(int32(n + 1))
	a.inUse.Add(-1)
}

// freeSlow spills half the core's stack to the global chain (or, with no
// cache, pushes the block straight there). Cold path.
func (m *Manager) freeSlow(c *coreCache, h Handle) {
	a := m.arena
	if c != nil {
		a.pushGlobal(c.local[:xferBatch])
		keep := copy(c.local, c.local[xferBatch:])
		c.local = c.local[:keep+1]
		c.local[keep] = int32(h - 1)
		c.depth.Store(int32(keep + 1))
		a.inUse.Add(-1)
		return
	}
	one := [1]int32{int32(h - 1)}
	a.pushGlobal(one[:])
	a.inUse.Add(-1)
}

// ReturnBlock hands one delivered block back from the worker side.
//
//scap:produce coreCache
func (m *Manager) ReturnBlock(core int, h Handle) {
	hs := [1]Handle{h}
	m.ReturnBlocks(core, hs[:])
}

// ReturnBlocks hands delivered blocks back to core's free pool from the
// worker side. The caller must be the single worker draining core's event
// queue (the ring is SPSC); a full ring spills to the global chain. One
// cursor publication covers the whole batch.
//
//scap:produce coreCache
func (m *Manager) ReturnBlocks(core int, hs []Handle) {
	a := m.arena
	c := a.cache(core)
	if c == nil {
		for _, h := range hs {
			if h == NoBlock {
				continue
			}
			one := [1]int32{int32(h - 1)}
			a.pushGlobal(one[:])
			a.inUse.Add(-1)
		}
		return
	}
	t := c.rtail.Load()
	head := c.rhead.Load()
	freed := int64(0)
	for _, h := range hs {
		if h == NoBlock {
			continue
		}
		if t-head >= ringCap {
			head = c.rhead.Load()
			if t-head >= ringCap {
				one := [1]int32{int32(h - 1)}
				a.pushGlobal(one[:])
				freed++
				continue
			}
		}
		c.ring[t&(ringCap-1)] = int32(h - 1)
		t++
		freed++
	}
	c.rtail.Store(t)
	a.inUse.Add(-freed)
}

// BlockSize returns the arena's block granularity in bytes — the hard upper
// bound on a chunk's size.
func (m *Manager) BlockSize() int { return m.arena.blockSize }

// Blocks returns the arena's total block count.
func (m *Manager) Blocks() int { return int(m.arena.nblocks) }

// BlocksInUse returns how many blocks are currently held by callers.
func (m *Manager) BlocksInUse() int64 { return m.arena.inUse.Load() }

// BlockBytes returns the full-capacity storage of a block (nil for NoBlock).
// Only the block's current owner may write through it.
func (m *Manager) BlockBytes(h Handle) []byte {
	if h == NoBlock {
		return nil
	}
	return m.arena.bytes(int32(h - 1))
}

// BlockAttachment returns the block's attachment (see SetBlockAttachment),
// or nil.
func (m *Manager) BlockAttachment(h Handle) any {
	if h == NoBlock {
		return nil
	}
	idx := int32(h - 1)
	return m.arena.seg(idx).attach[int(idx)&(segBlocks-1)]
}

// SetBlockAttachment stores an owner-defined sidecar on the block that
// recycles with it (the engine parks each chunk's packet-record slab here,
// so record storage is reused block-for-block instead of reallocated). Only
// the block's current owner may call it; ownership hand-off through the
// free structures orders the accesses.
func (m *Manager) SetBlockAttachment(h Handle, v any) {
	if h == NoBlock {
		return
	}
	idx := int32(h - 1)
	m.arena.seg(idx).attach[int(idx)&(segBlocks-1)] = v
}
