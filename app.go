package scap

import (
	"fmt"
	"sync"

	"scap/internal/bpf"
	"scap/internal/pkt"
)

// App is one of several applications sharing a single capture socket
// (paper §5.6). All apps share one stream memory buffer and one in-kernel
// reassembly pass; the capture core is configured with the union of their
// requirements (the largest cutoff, streams matching at least one filter),
// and each app's own filter and cutoff are applied at delivery, marking
// which applications receive each stream.
//
// Create apps with Handle.NewApp before StartCapture. When at least one
// app exists, the socket-level Dispatch* callbacks are not used.
type App struct {
	h      *Handle
	name   string
	filter *bpf.Filter
	expr   string
	// cutoff is this app's view; negative means unlimited.
	cutoff    int64
	hasCutoff bool

	onCreate Handler
	onData   Handler
	onClose  Handler

	// delivered tracks per-stream bytes handed to this app, enforcing the
	// app cutoff at delivery. Guarded by mu: streams from different
	// worker goroutines may land here.
	mu        sync.Mutex
	delivered map[uint64]int64
}

// NewApp registers a new application on the socket.
func (h *Handle) NewApp(name string) (*App, error) {
	if h.started {
		return nil, ErrStarted
	}
	a := &App{h: h, name: name, cutoff: CutoffUnlimited, delivered: make(map[uint64]int64)}
	h.apps = append(h.apps, a)
	return a, nil
}

// SetFilter restricts this app to streams matching the expression.
func (a *App) SetFilter(expr string) error {
	if a.h.started {
		return ErrStarted
	}
	f, err := bpf.Parse(expr)
	if err != nil {
		return err
	}
	a.filter, a.expr = f, expr
	return nil
}

// SetCutoff bounds how much of each stream this app receives. The capture
// core keeps collecting up to the largest cutoff any app requested.
func (a *App) SetCutoff(cutoff int64) error {
	if a.h.started {
		return ErrStarted
	}
	a.cutoff, a.hasCutoff = cutoff, true
	return nil
}

// DispatchCreation registers this app's stream-creation callback.
func (a *App) DispatchCreation(fn Handler) { a.onCreate = fn }

// DispatchData registers this app's stream-data callback.
func (a *App) DispatchData(fn Handler) { a.onData = fn }

// DispatchTermination registers this app's stream-termination callback.
func (a *App) DispatchTermination(fn Handler) { a.onClose = fn }

// Name returns the app's registration name.
func (a *App) Name() string { return a.name }

// matches reports whether the app wants the stream (either direction).
func (a *App) matches(key FlowKey) bool {
	if a.filter == nil {
		return true
	}
	p := &pkt.Packet{Key: key, IPVersion: ipVersionOf(key)}
	if a.filter.Match(p) {
		return true
	}
	p.Key = key.Reverse()
	return a.filter.Match(p)
}

func ipVersionOf(key FlowKey) uint8 {
	if key.SrcIP.Is4() {
		return 4
	}
	return 6
}

// resolveApps folds the apps' requirements into the engine configuration:
// the kernel keeps the superset, apps subset at delivery.
func (h *Handle) resolveApps() error {
	if len(h.apps) == 0 {
		return nil
	}
	// Cutoff: the largest requested (unlimited wins).
	maxCutoff := int64(0)
	unlimited := false
	allSet := true
	for _, a := range h.apps {
		if !a.hasCutoff {
			allSet = false
			break
		}
		if a.cutoff < 0 {
			unlimited = true
		} else if a.cutoff > maxCutoff {
			maxCutoff = a.cutoff
		}
	}
	switch {
	case !allSet || unlimited:
		h.engCfg.Cutoff = CutoffUnlimited
	default:
		h.engCfg.Cutoff = maxCutoff
	}
	// Filter: streams matching at least one app filter are kept; if any
	// app is unfiltered the kernel filter is dropped entirely. The union
	// is built by composing the original expressions.
	expr := ""
	for _, a := range h.apps {
		if a.filter == nil {
			h.engCfg.Filter = nil
			return nil
		}
		if expr != "" {
			expr += " or "
		}
		expr += "(" + a.expr + ")"
	}
	f, err := bpf.Parse(expr)
	if err != nil {
		return fmt.Errorf("scap: composing app filters: %w", err)
	}
	h.engCfg.Filter = f
	return nil
}

// appEventKind mirrors the event types for app fan-out without importing
// the internal event package into the type's public surface.
type appEventKind uint8

const (
	appEvCreation appEventKind = iota
	appEvData
	appEvTermination
)

// dispatchApps fans one event out to every matching app.
func (h *Handle) dispatchApps(kind appEventKind, sd *Stream) {
	for _, a := range h.apps {
		if !a.matches(sd.Key()) {
			continue
		}
		switch kind {
		case appEvCreation:
			if a.onCreate != nil {
				a.onCreate(sd)
			}
		case appEvData:
			a.deliver(sd, a.onData)
		case appEvTermination:
			// Only an app with a cutoff of its own tracks delivered bytes.
			if a.cutoff >= 0 {
				//scaplint:ignore hotpathblock audited: per-app cutoff state is shared by every worker that delivers to the app; taken once per event of such an app, never per packet, and not at all for apps without a cutoff
				a.mu.Lock()
				delete(a.delivered, sd.ID())
				a.mu.Unlock()
			}
			if a.onClose != nil {
				a.onClose(sd)
			}
		}
	}
}

// deliver applies the app's own cutoff to a data event and invokes fn.
func (a *App) deliver(sd *Stream, fn Handler) {
	if fn == nil {
		return
	}
	data := sd.Data
	if a.cutoff >= 0 {
		//scaplint:ignore hotpathblock audited: per-app cutoff state is shared by every worker that delivers to the app; taken once per data event of such an app, never per packet
		a.mu.Lock()
		seen := a.delivered[sd.ID()]
		remain := a.cutoff - seen
		if remain <= 0 {
			a.mu.Unlock()
			return
		}
		if int64(len(data)) > remain {
			data = data[:remain]
		}
		a.delivered[sd.ID()] = seen + int64(len(data))
		a.mu.Unlock()
	}
	// Hand the app a view with its truncated data; other fields shared.
	view := *sd
	view.Data = data
	fn(&view)
	if view.keep {
		sd.keep = true // any app keeping the chunk keeps it for all
	}
}
