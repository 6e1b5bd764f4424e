package analysis_test

import (
	"strings"
	"testing"

	"peertrack/internal/analysis"
	"peertrack/internal/analysis/analysistest"
)

// TestCallGraphDiamond drives the fact machinery over the diamond
// fixture (dtop -> dleft, dright -> dbase): both arms must reach the
// shared base, a blocking site must propagate two packages up, and the
// Ping/Pong cycle must terminate as clean.
func TestCallGraphDiamond(t *testing.T) {
	facts := analysistest.LoadFacts(t, analysistest.TestData(), "dtop")

	entry := facts.Funcs["dtop.Entry"]
	if entry == nil {
		t.Fatal("no fact for dtop.Entry")
	}
	var callees []string
	for _, e := range entry.Calls {
		callees = append(callees, e.Callee)
	}
	for _, want := range []string{"dleft.Via", "dright.Via"} {
		found := false
		for _, c := range callees {
			if c == want {
				found = true
			}
		}
		if !found {
			t.Errorf("dtop.Entry call edges = %v, missing %s", callees, want)
		}
	}

	// Both arms reach the same base.
	for _, arm := range []string{"dleft.Via", "dright.Via"} {
		if f := facts.Funcs[arm]; f == nil || len(f.Calls) != 1 || f.Calls[0].Callee != "dbase.Fresh" {
			t.Errorf("%s call edges = %+v, want the one to dbase.Fresh", arm, f)
		}
	}

	// Blocking chains propagate two packages up.
	if chain := facts.BlockChain("dtop.Waits"); chain == nil {
		t.Error("BlockChain(dtop.Waits) = nil, want chain reaching dbase.Wait's time.Sleep")
	} else if last := chain[len(chain)-1]; !strings.Contains(last, "time.Sleep") {
		t.Errorf("BlockChain(dtop.Waits) ends %q, want time.Sleep", last)
	}

	// The clean cycle terminates and reports clean.
	for _, fn := range []string{"dbase.Ping", "dbase.Pong"} {
		if chain := facts.BlockChain(fn); chain != nil {
			t.Errorf("BlockChain(%s) = %v, want nil for the clean cycle", fn, chain)
		}
	}
}

// TestAllowHygiene checks the //lint:allow contract over the allowcheck
// fixture: a bare allow, an unknown pass, and a stale allow are each
// exactly one finding; the healthy allow and the suppressed detwall
// sites produce none.
func TestAllowHygiene(t *testing.T) {
	findings := analysistest.Analyze(t, analysistest.TestData(), "allowcheck")
	wants := []string{
		"needs a reason",
		`unknown pass "nosuchpass"`,
		"stale //lint:allow detrand",
	}
	for _, want := range wants {
		n := 0
		for _, f := range findings {
			if strings.Contains(f.Message, want) {
				n++
				if f.Analyzer != analysis.AllowHygieneName {
					t.Errorf("finding %q reported under %q, want %q", f.Message, f.Analyzer, analysis.AllowHygieneName)
				}
			}
		}
		if n != 1 {
			t.Errorf("hygiene finding %q seen %d times, want once", want, n)
		}
	}
	if len(findings) != len(wants) {
		for _, f := range findings {
			t.Logf("finding: %s", f)
		}
		t.Errorf("allowcheck produced %d findings, want %d", len(findings), len(wants))
	}
}
