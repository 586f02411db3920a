package analysis

import (
	"strings"
	"testing"
)

func TestHotPathBlock(t *testing.T) {
	_, pkg := loadFixtures(t, "hotpathblock")
	diags := checkAnalyzer(t, HotPathBlock, pkg)

	// A blocking site inside a marked function reports the function
	// itself; a transitive site reports the witness chain from the root.
	if got := positionOf(t, diags, "channel send"); got != "fixtures.go:19:7" {
		t.Errorf("send finding at %s, want fixtures.go:19:7", got)
	}
	sleep := messageOf(t, diags, "time.Sleep")
	if !strings.Contains(sleep, "reached from //scap:hotpath q.poll → q.parkUntil") {
		t.Errorf("transitive finding lacks the witness chain: %s", sleep)
	}
	direct := messageOf(t, diags, "channel receive")
	if !strings.Contains(direct, "in //scap:hotpath q.drainOne") {
		t.Errorf("direct finding misattributed: %s", direct)
	}
}

// TestHotPathLockFixtures pins the lock cases of the hotpathblock fixtures
// to exact positions: the finding anchors on the acquisition's call
// parenthesis, through a field, a TryLock condition, and an embedded mutex.
func TestHotPathLockFixtures(t *testing.T) {
	_, pkg := loadFixtures(t, "hotpathblock")
	diags := RunAll([]*Package{pkg}, []*Analyzer{HotPathBlock})
	for substr, want := range map[string]string{
		"sync.RWMutex.RLock":         "fixtures.go:96:12",
		"sync.Mutex.TryLock":         "fixtures.go:105:17",
		"padded.bump":                "fixtures.go:121:8",
		"ring.publish → ring.record": "fixtures.go:129:11",
	} {
		if got := positionOf(t, diags, substr); got != want {
			t.Errorf("%s finding at %s, want %s", substr, got, want)
		}
	}
}

func TestHotPathLockSuppression(t *testing.T) {
	// ring.audited carries //scaplint:ignore hotpathblock; the raw run must
	// find it, the filtered run must not.
	_, pkg := loadFixtures(t, "hotpathblock")
	audited := func(diags []Diagnostic) bool {
		for _, d := range diags {
			if strings.Contains(d.Message, "ring.audited") {
				return true
			}
		}
		return false
	}
	if !audited(HotPathBlock.RunProgram(NewProgram([]*Package{pkg}))) {
		t.Fatal("raw run should flag ring.audited before suppression filtering")
	}
	if audited(RunAll([]*Package{pkg}, []*Analyzer{HotPathBlock})) {
		t.Error("suppressed diagnostic survived filtering")
	}
}
