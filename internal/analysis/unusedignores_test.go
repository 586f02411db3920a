package analysis

import "testing"

// TestUnusedIgnores runs a real analyzer over the fixture so directives
// can genuinely fire (or not), then checks the stale-suppression pass
// against the fixture's want comments.
func TestUnusedIgnores(t *testing.T) {
	_, pkg := loadFixtures(t, "unusedignores")
	res := Run([]*Package{pkg}, []*Analyzer{HotPathBlock})
	matchWants(t, pkg, UnusedIgnoreDiagnostics(res, All()))

	// The healthy directive (named analyzer, justified, fired) must be
	// recorded as used and produce no finding.
	var healthy *IgnoreInfo
	for i := range res.Ignores {
		if res.Ignores[i].Reason == "audited: slow-path fallback taken once per epoch" {
			healthy = &res.Ignores[i]
		}
	}
	if healthy == nil {
		t.Fatal("healthy directive not collected")
	}
	if !healthy.Used || healthy.Analyzer != "hotpathblock" {
		t.Errorf("healthy directive misparsed: %+v", healthy)
	}
}
