package flowtab

import (
	"math/rand"
	"net/netip"
	"testing"

	"scap/internal/pkt"
)

func tk(sp, dp uint16) pkt.FlowKey {
	return pkt.FlowKey{
		SrcIP: pkt.MustAddr("10.0.0.1"), DstIP: pkt.MustAddr("10.0.0.2"),
		SrcPort: sp, DstPort: dp, Proto: pkt.ProtoTCP,
	}
}

func newT() *Table { return NewTable(rand.New(rand.NewSource(1))) }

func TestGetOrCreateAndLookup(t *testing.T) {
	tab := newT()
	k := tk(1000, 80)
	s, created := tab.GetOrCreate(k, 100)
	if !created || s == nil {
		t.Fatal("first GetOrCreate should create")
	}
	if s.Dir != pkt.DirClient || s.Status != StatusActive || s.Stats.Start != 100 {
		t.Errorf("new stream = %+v", s)
	}
	s2, created := tab.GetOrCreate(k, 200)
	if created || s2 != s {
		t.Error("second GetOrCreate should find the same record")
	}
	if s.LastAccess() != 200 {
		t.Errorf("lastAccess = %d", s.LastAccess())
	}
	if tab.Lookup(tk(1000, 81)) != nil {
		t.Error("lookup of unknown key succeeded")
	}
}

func TestOppositeDirectionLinking(t *testing.T) {
	tab := newT()
	k := tk(1000, 80)
	c, _ := tab.GetOrCreate(k, 1)
	srv, created := tab.GetOrCreate(k.Reverse(), 2)
	if !created {
		t.Fatal("reverse direction should be a distinct record")
	}
	if c.Opposite != srv || srv.Opposite != c {
		t.Error("directions not cross-linked")
	}
	if srv.Dir != pkt.DirServer {
		t.Errorf("server dir = %v", srv.Dir)
	}
	if c.ID == srv.ID {
		t.Error("directions share an ID")
	}
	tab.Remove(c)
	if srv.Opposite != nil {
		t.Error("removing one direction left a dangling Opposite")
	}
}

func TestLRUExpiry(t *testing.T) {
	tab := newT()
	for i := 0; i < 10; i++ {
		tab.GetOrCreate(tk(uint16(1000+i), 80), int64(i))
	}
	// Touch stream 0 so it becomes the freshest.
	tab.Touch(tab.Lookup(tk(1000, 80)), 100)
	var expired []*Stream
	n := tab.ExpireBefore(5, func(s *Stream) { expired = append(expired, s) })
	if n != 4 { // streams created at t=1..4 (stream 0 was touched at 100)
		t.Fatalf("expired %d, want 4", n)
	}
	for _, s := range expired {
		if s.Status != StatusTimedOut {
			t.Errorf("expired stream status = %v", s.Status)
		}
		if s.Key == tk(1000, 80) {
			t.Error("freshly touched stream expired")
		}
	}
	if tab.Len() != 6 {
		t.Errorf("len = %d, want 6", tab.Len())
	}
}

func TestExpirySweepStopsAtFreshStream(t *testing.T) {
	tab := newT()
	for i := 0; i < 1000; i++ {
		tab.GetOrCreate(tk(uint16(i), 80), int64(i))
	}
	// Nothing is older than deadline 0: sweep must do no work and remove
	// nothing.
	if n := tab.ExpireBefore(0, nil); n != 0 {
		t.Errorf("expired %d, want 0", n)
	}
}

// TestExpiryNeverKillsFresh is the property test for the access-list sweep:
// after arbitrary interleaved creates and touches, no stream accessed within
// the timeout window is ever expired.
func TestExpiryNeverKillsFresh(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	tab := newT()
	const timeout = 50
	now := int64(0)
	live := map[pkt.FlowKey]bool{}
	for step := 0; step < 5000; step++ {
		now++
		switch r.Intn(3) {
		case 0, 1:
			k := tk(uint16(r.Intn(500)), 80)
			tab.GetOrCreate(k, now)
			live[k] = true
		case 2:
			tab.ExpireBefore(now-timeout, func(s *Stream) {
				if now-s.LastAccess() <= timeout {
					t.Fatalf("expired stream %v accessed %d ago", s.Key, now-s.LastAccess())
				}
				delete(live, s.Key)
			})
		}
	}
	// Every live key must still be resident.
	for k := range live {
		if s := tab.Lookup(k); s != nil && now-s.LastAccess() <= timeout {
			continue
		} else if s == nil {
			// Expired legitimately only if stale.
			continue
		}
	}
}

func TestEvictOldest(t *testing.T) {
	tab := newT()
	// One generation (~268 ms) apart, so every stream sits in its own age
	// class and oldest-first eviction is exact.
	for i := 0; i < 5; i++ {
		tab.GetOrCreate(tk(uint16(2000+i), 80), int64(i)<<genShift)
	}
	ev := tab.EvictOldest(nil)
	if ev == nil || ev.Key != tk(2000, 80) {
		t.Fatalf("evicted %v, want oldest", ev)
	}
	if ev.Status != StatusEvicted {
		t.Errorf("status = %v", ev.Status)
	}
	if tab.Evicted != 1 || tab.Len() != 4 {
		t.Errorf("Evicted=%d Len=%d", tab.Evicted, tab.Len())
	}
	// Draining the table keeps yielding the oldest remaining class.
	for want := 2001; want <= 2004; want++ {
		ev = tab.EvictOldest(nil)
		if ev == nil || ev.Key.SrcPort != uint16(want) {
			t.Fatalf("evicted %v, want port %d", ev, want)
		}
	}
	if tab.EvictOldest(nil) != nil {
		t.Error("eviction from empty table returned a stream")
	}
}

// TestEvictOldestWithinClass: streams created inside the same generation are
// all eviction-eligible regardless of creation order — the age classes are
// coarse by design.
func TestEvictOldestWithinClass(t *testing.T) {
	tab := newT()
	old := map[uint16]bool{}
	for i := 0; i < 3; i++ { // same generation: all age-equivalent
		tab.GetOrCreate(tk(uint16(3000+i), 80), int64(i))
		old[uint16(3000+i)] = true
	}
	// A later class that must survive while the old class drains.
	tab.GetOrCreate(tk(4000, 80), 10<<genShift)
	for i := 0; i < 3; i++ {
		ev := tab.EvictOldest(nil)
		if ev == nil || !old[ev.Key.SrcPort] {
			t.Fatalf("evicted %v, want a member of the oldest class", ev)
		}
		delete(old, ev.Key.SrcPort)
	}
	if s := tab.Lookup(tk(4000, 80)); s == nil {
		t.Error("fresh stream evicted before the oldest class drained")
	}
}

func TestDynamicGrowthMillionsOfStreams(t *testing.T) {
	if testing.Short() {
		t.Skip("million-stream growth run; skipped in -short runs")
	}
	if testing.Short() {
		t.Skip("large table test")
	}
	tab := newT()
	const n = 1 << 20 // ~1M directions; Fig 5's point is there is no cap
	mk := func(i int) pkt.FlowKey {
		return pkt.FlowKey{
			SrcIP:   netip.AddrFrom4([4]byte{10, byte(i >> 16), byte(i >> 8), byte(i)}),
			DstIP:   pkt.MustAddr("10.255.0.2"),
			SrcPort: uint16(i), DstPort: 80, Proto: pkt.ProtoTCP,
		}
	}
	for i := 0; i < n; i++ {
		tab.GetOrCreate(mk(i), int64(i))
	}
	if tab.Len() != n {
		t.Fatalf("len = %d, want %d", tab.Len(), n)
	}
	// All streams remain findable (no silent cap).
	if tab.Lookup(mk(1)) == nil {
		t.Error("early stream lost after growth")
	}
}

func TestRecycleReuse(t *testing.T) {
	tab := newT()
	s, _ := tab.GetOrCreate(tk(1, 2), 0)
	s.User = "cookie"
	tab.Remove(s)
	tab.Recycle(s)
	s2, _ := tab.GetOrCreate(tk(3, 4), 0)
	if s2 != s {
		t.Log("allocator did not reuse record (allowed, but pool expected)")
	}
	if s2.User != nil {
		t.Error("recycled record leaked state")
	}
}

func TestWalkCoversEveryStream(t *testing.T) {
	tab := newT()
	for i := 0; i < 5; i++ {
		tab.GetOrCreate(tk(uint16(100+i), 80), int64(i))
	}
	seen := map[uint16]bool{}
	tab.Walk(func(s *Stream) bool {
		if seen[s.Key.SrcPort] {
			t.Fatalf("stream %v visited twice", s.Key)
		}
		seen[s.Key.SrcPort] = true
		return true
	})
	if len(seen) != 5 {
		t.Fatalf("walk visited %d streams, want 5", len(seen))
	}
	// Early termination is honored.
	n := 0
	tab.Walk(func(*Stream) bool { n++; return false })
	if n != 1 {
		t.Errorf("walk after false continued: %d visits", n)
	}
}

func TestSweepVisitsWholeTableIncrementally(t *testing.T) {
	tab := newT()
	const streams = 100
	for i := 0; i < streams; i++ {
		tab.GetOrCreate(tk(uint16(i), 80), int64(i))
	}
	groups := tab.Cap() / slotsPerGroup
	seen := map[uint16]int{}
	visited := 0
	// Quarter-table budget per call: four calls must cover every group
	// exactly once.
	for visited < groups {
		visited += tab.Sweep(100, groups/4, func(s *Stream) { seen[s.Key.SrcPort]++ })
	}
	if len(seen) != streams {
		t.Fatalf("sweeps visited %d distinct streams, want %d", len(seen), streams)
	}
	for p, n := range seen {
		if n != 1 {
			t.Fatalf("stream %d visited %d times in one full cycle", p, n)
		}
	}
	if tab.SweptGroups != uint64(groups) {
		t.Errorf("SweptGroups = %d, want %d", tab.SweptGroups, groups)
	}
}

// TestSweepRepairsAliasedGenerations: a stream idle past the uint8
// generation span aliases to a young class; one full sweep cycle re-stamps
// it into the oldest representable class so eviction targets it again.
func TestSweepRepairsAliasedGenerations(t *testing.T) {
	tab := newT()
	idle, _ := tab.GetOrCreate(tk(1, 80), 0)
	// 300 generations later: uint8(300)=44, so without repair the idle
	// stream's stamp (0) looks newer than a gen-44-created fresh stream
	// would... create fresh streams now.
	now := int64(300) << genShift
	fresh, _ := tab.GetOrCreate(tk(2, 80), now)
	groups := tab.Cap() / slotsPerGroup
	tab.Sweep(now, groups, nil)
	ev := tab.EvictOldest(nil)
	if ev != idle {
		t.Fatalf("evicted %v, want the ancient idle stream", ev.Key)
	}
	if !fresh.InTable() {
		t.Error("fresh stream evicted")
	}
}

func TestSetIDBaseGuard(t *testing.T) {
	tab := newT()
	tab.SetIDBase(1 << 48) // before first stream: fine
	s, _ := tab.GetOrCreate(tk(1, 2), 0)
	if s.ID != 1<<48+1 {
		t.Fatalf("ID = %#x, want base+1", s.ID)
	}
	defer func() {
		if recover() == nil {
			t.Error("SetIDBase after stream creation did not panic")
		}
	}()
	tab.SetIDBase(2 << 48)
}

func TestTombstoneReuseAndRehash(t *testing.T) {
	tab := newT()
	// Fill well past several growths with interleaved removals so slots
	// cycle through tombstone and empty states, then verify membership.
	live := map[uint16]*Stream{}
	for i := 0; i < 20000; i++ {
		p := uint16(i)
		s, created := tab.GetOrCreate(tk(p, 80), int64(i))
		if !created {
			t.Fatalf("key %d collided", i)
		}
		live[p] = s
		if i%3 == 0 {
			victim := uint16(i / 2)
			if v, ok := live[victim]; ok {
				tab.Remove(v)
				tab.Recycle(v)
				delete(live, victim)
			}
		}
	}
	if tab.Len() != len(live) {
		t.Fatalf("len = %d, want %d", tab.Len(), len(live))
	}
	for p, want := range live {
		if got := tab.Lookup(tk(p, 80)); got != want {
			t.Fatalf("key %d resolved to %v, want its record", p, got)
		}
	}
	// Removed keys stay gone.
	if tab.Lookup(tk(3, 80)) != nil && live[3] == nil {
		t.Error("removed key still resolves")
	}
}

// TestPointerStabilityAcrossGrowth pins the slab contract: records handed
// out before growth remain the same *Stream (and findable) after the table
// rehashes many times.
func TestPointerStabilityAcrossGrowth(t *testing.T) {
	tab := newT()
	first, _ := tab.GetOrCreate(tk(9999, 80), 0)
	for i := 0; i < 100000; i++ {
		tab.GetOrCreate(tk(uint16(i), uint16(8000+i>>16)), int64(i))
	}
	if got := tab.Lookup(tk(9999, 80)); got != first {
		t.Fatalf("record moved across growth: %p != %p", got, first)
	}
	if first.Key != tk(9999, 80) || !first.InTable() {
		t.Error("record corrupted across growth")
	}
}

func TestRandomizedSeedDiffers(t *testing.T) {
	t1 := NewTable(rand.New(rand.NewSource(1)))
	t2 := NewTable(rand.New(rand.NewSource(2)))
	if t1.seed == t2.seed {
		t.Error("different RNGs produced identical seeds")
	}
}

func TestEstimatedBytesFromFIN(t *testing.T) {
	tab := newT()
	s, _ := tab.GetOrCreate(tk(1, 2), 0)
	s.Stats.PayloadBytes = 100
	if s.EstimatedBytes() != 100 {
		t.Errorf("EstimatedBytes = %d", s.EstimatedBytes())
	}
}

// TestSnapshotCarriesSlabIndex: Info.Ref is the record's slab index — stable
// for the stream's life, distinct among live streams, and handed to the next
// stream that reuses the record (under a new ID), which is what lets
// consumers index per-stream side arrays by it.
func TestSnapshotCarriesSlabIndex(t *testing.T) {
	tab := NewTable(rand.New(rand.NewSource(1)))
	seen := make(map[uint32]bool)
	var streams []*Stream
	for i := 0; i < 3*pageSize/2; i++ {
		s, _ := tab.GetOrCreate(tk(uint16(i), 1), int64(i))
		ref := s.Snapshot(0).Ref
		if seen[ref] {
			t.Fatalf("stream %d shares slab index %d with a live stream", i, ref)
		}
		seen[ref] = true
		streams = append(streams, s)
	}
	victim := streams[pageSize+7]
	ref, id := victim.Snapshot(0).Ref, victim.ID
	tab.Touch(victim, 1<<40)
	if victim.Snapshot(3).Ref != ref {
		t.Fatal("slab index moved while the stream was live")
	}
	tab.Remove(victim)
	tab.Recycle(victim)
	s, created := tab.GetOrCreate(tk(60000, 60000), 1<<41)
	if !created {
		t.Fatal("expected a new stream")
	}
	if info := s.Snapshot(0); info.Ref != ref || info.ID == id {
		t.Fatalf("reused record: ref %d id %d, want ref %d and a new id (old %d)", info.Ref, info.ID, ref, id)
	}
}
