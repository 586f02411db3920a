// Package unusedignores exercises stale-suppression detection: every
// //scaplint:ignore directive must name a known analyzer, justify itself,
// and actually suppress something.
package unusedignores

import "sync"

type guarded struct {
	mu sync.Mutex
	n  int
}

// locked's ignore names the analyzer, gives a reason, and fires: fine.
//
//scap:hotpath
func (g *guarded) locked() {
	g.mu.Lock() //scaplint:ignore hotpathblock audited: slow-path fallback taken once per epoch
	g.n++
	g.mu.Unlock()
}

// clean triggers nothing, so its directive is stale.
func (g *guarded) clean() {
	//scaplint:ignore hotpathblock nothing on this line needs suppressing // want unusedignores "stale //scaplint:ignore hotpathblock"
	g.n--
}

//scap:hotpath
func (g *guarded) bare() {
	g.mu.Lock() //scaplint:ignore // want unusedignores "bare //scaplint:ignore"
	g.n++
	g.mu.Unlock()
}

//scap:hotpath
func (g *guarded) unjustified() {
	g.mu.Lock() //scaplint:ignore hotpathblock // want unusedignores "no justification"
	g.n++
	g.mu.Unlock()
}

func (g *guarded) typo() {
	g.n-- //scaplint:ignore hotpathblok misspelled analyzer name // want unusedignores "unknown analyzer \"hotpathblok\""
}
