package metrics

import "sort"

// The flight recorder is the registry's always-on incident log: a fixed-size
// per-core SeqRing of compact binary records for notable engine decisions (PPL
// transitions, cutoff truncation, FDIR churn, ring overflow, arena fallback,
// stream churn under pressure). It is written from //scap:hotpath code, so the
// write path — Note — is a claim plus a handful of atomic stores: no locks, no
// allocation, no formatting. Readers reconstruct a best-effort timeline on
// demand (/debug/flight, the /metrics events view), and can export it as
// Chrome trace-event JSON for chrome://tracing / Perfetto.

// FlightKind discriminates flight-recorder records.
type FlightKind uint8

// Flight record kinds, in rough pipeline order.
const (
	FlightPPLEnter       FlightKind = iota // memory crossed the PPL watermark; Value = usage per-mille
	FlightPPLExit                          // pressure released; Value = episode duration (ns)
	FlightCutoff                           // stream hit its cutoff; Value = stream ID, Aux = captured bytes
	FlightFDIRInstall                      // hardware drop filter pair installed; Value = stream ID (0 = sketch-owned)
	FlightFDIRRemove                       // hardware filter pair removed/expired; Value = stream ID (0 = sketch-owned)
	FlightFDIRRebalance                    // balancer redirected a flow; Value = from queue, Aux = to queue
	FlightRingOverflow                     // event ring full, events lost; Value = events lost in the batch
	FlightNICRingFull                      // NIC ring full episode began; Value = ring capacity
	FlightNICRingRecover                   // NIC ring drained; Value = frames dropped, Aux = episode duration (virtual ns)
	FlightArenaFallback                    // arena exhausted, chunk fell back to heap; Value = requested bytes
	FlightStreamCreate                     // stream created while under PPL pressure; Value = stream ID, Aux = priority
	FlightStreamExpire                     // stream timed out/evicted while under PPL pressure; Value = stream ID

	// Control-plane decisions (internal/ctlplane). The controller notes one
	// record per actuation so an overload episode replays end to end:
	// signal (PPL/arena records above) → decision (these) → recovery.
	FlightCtlTighten    // controller lowered the dynamic cutoff; Value = new cutoff bytes, Aux = memory per-mille
	FlightCtlRelax      // controller raised/restored the cutoff; Value = new cutoff (-1 = restored), Aux = memory per-mille
	FlightCtlFDIRBudget // controller resized the sketch-FDIR budget; Value = filters per core, Aux = tracked heavies
	FlightCtlWatermarks // controller retargeted PPL watermarks; Value = watermark_0 per-mille, Aux = priority levels
)

var flightKindNames = [...]string{
	FlightPPLEnter:       "ppl_enter",
	FlightPPLExit:        "ppl_exit",
	FlightCutoff:         "cutoff",
	FlightFDIRInstall:    "fdir_install",
	FlightFDIRRemove:     "fdir_remove",
	FlightFDIRRebalance:  "fdir_rebalance",
	FlightRingOverflow:   "event_ring_overflow",
	FlightNICRingFull:    "nic_ring_full",
	FlightNICRingRecover: "nic_ring_recover",
	FlightArenaFallback:  "arena_fallback",
	FlightStreamCreate:   "stream_create",
	FlightStreamExpire:   "stream_expire",
	FlightCtlTighten:     "ctl_tighten",
	FlightCtlRelax:       "ctl_relax",
	FlightCtlFDIRBudget:  "ctl_fdir_budget",
	FlightCtlWatermarks:  "ctl_watermarks",
}

// String returns the kind's wire name.
func (k FlightKind) String() string {
	if int(k) < len(flightKindNames) {
		return flightKindNames[k]
	}
	return "unknown"
}

// defaultFlightCap is each core's ring capacity (power of two). At 48 bytes a
// slot this is ~48 KiB per core — cheap enough to leave always on.
const defaultFlightCap = 1024

// flightRing is one core's ring. The leading pad keeps each ring's cursor off
// its neighbours' cache lines, so writer claims never contend across cores.
//
//scap:atomics
type flightRing struct {
	_    [64]byte
	ring SeqRing
}

// FlightRecorder is the per-core flight-recorder ring set of one registry.
// Note and NoteAt are the only methods legal in //scap:hotpath code (the
// metricreg analyzer enforces this); Snapshot/Dump/Total are cold read paths.
type FlightRecorder struct {
	rings []flightRing
	now   *func() int64
}

func newFlightRecorder(cores, capacity int, now *func() int64) *FlightRecorder {
	if cores < 1 {
		cores = 1
	}
	if capacity < 2 || capacity&(capacity-1) != 0 {
		capacity = defaultFlightCap
	}
	f := &FlightRecorder{rings: make([]flightRing, cores), now: now}
	for i := range f.rings {
		f.rings[i].ring.Init(make([]SeqSlot, capacity))
	}
	return f
}

// Note records one flight record on core's ring, stamped from the registry
// clock, overwriting the oldest slot when the ring is full. It is the
// fixed-size no-alloc encoder, safe from //scap:hotpath code. An
// out-of-range core falls back to ring 0.
//
//scap:hotpath
func (f *FlightRecorder) Note(core int, kind FlightKind, value, aux int64) {
	if core < 0 || core >= len(f.rings) {
		core = 0
	}
	f.rings[core].ring.Put((*f.now)(), uint64(kind), value, aux)
}

// Now reads the recorder's clock (the registry clock), for callers that keep
// episode bookkeeping on the same timestamp as the record they NoteAt.
func (f *FlightRecorder) Now() int64 { return (*f.now)() }

// NoteAt is Note with a timestamp the caller already read from Now.
//
//scap:hotpath
func (f *FlightRecorder) NoteAt(core int, kind FlightKind, ts, value, aux int64) {
	if core < 0 || core >= len(f.rings) {
		core = 0
	}
	f.rings[core].ring.Put(ts, uint64(kind), value, aux)
}

// FlightRecord is one decoded flight-recorder record.
type FlightRecord struct {
	Seq          uint64     `json:"seq"`
	TimeUnixNano int64      `json:"time_unix_nano"`
	Core         int        `json:"core"`
	Kind         FlightKind `json:"kind"`
	KindName     string     `json:"kind_name"`
	Value        int64      `json:"value"`
	Aux          int64      `json:"aux,omitempty"`
}

// Snapshot decodes every readable record, oldest first (by timestamp, then
// core, then sequence). Records being overwritten concurrently are skipped.
func (f *FlightRecorder) Snapshot() []FlightRecord {
	var out []FlightRecord
	for core := range f.rings {
		f.rings[core].ring.Read(func(r SeqRecord) {
			kind := FlightKind(r.Kind)
			out = append(out, FlightRecord{
				Seq: r.Seq, TimeUnixNano: r.TS, Core: core,
				Kind: kind, KindName: kind.String(), Value: r.A, Aux: r.B,
			})
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].TimeUnixNano != out[j].TimeUnixNano {
			return out[i].TimeUnixNano < out[j].TimeUnixNano
		}
		if out[i].Core != out[j].Core {
			return out[i].Core < out[j].Core
		}
		return out[i].Seq < out[j].Seq
	})
	return out
}

// Total returns how many records were ever written across all cores
// (including records since overwritten).
func (f *FlightRecorder) Total() uint64 {
	var t uint64
	for i := range f.rings {
		t += f.rings[i].ring.Claimed()
	}
	return t
}

// FlightDump is the /debug/flight JSON wire format.
type FlightDump struct {
	TimeUnixNano int64          `json:"time_unix_nano"`
	Cores        int            `json:"cores"`
	Capacity     int            `json:"capacity_per_core"`
	Total        uint64         `json:"total_recorded"`
	Records      []FlightRecord `json:"records"`
}

// Dump packages a snapshot for serving.
func (f *FlightRecorder) Dump() FlightDump {
	return FlightDump{
		TimeUnixNano: (*f.now)(),
		Cores:        len(f.rings),
		Capacity:     len(f.rings[0].ring.slots),
		Total:        f.Total(),
		Records:      f.Snapshot(),
	}
}

// ChromeTraceFromRecords converts flight records into a Chrome trace.
// Timestamps are rebased to the earliest record; each core becomes a thread
// (tid). A PPL exit carries its episode's duration and spans the episode;
// everything else is an instant event with the record's payload in args.
func ChromeTraceFromRecords(recs []FlightRecord) ChromeTrace {
	tr := NewChromeTrace()
	if len(recs) == 0 {
		return tr
	}
	base := recs[0].TimeUnixNano
	for _, r := range recs {
		base = min(base, r.TimeUnixNano)
	}
	for _, r := range recs {
		var span int64
		if r.Kind == FlightPPLExit {
			span = r.Value
		}
		tr.Add(r.KindName, "flight", r.Core, r.TimeUnixNano-base, span,
			map[string]any{"value": r.Value, "aux": r.Aux, "seq": int64(r.Seq)})
	}
	return tr
}
