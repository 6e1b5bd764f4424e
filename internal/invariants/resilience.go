package invariants

import (
	"fmt"

	"peertrack/internal/transport"
)

// CheckResilience verifies the retry/breaker accounting of a
// transport.Resilient wrapper against the inner transport it drives.
// It holds exactly when the wrapper is the inner transport's only
// caller (every live node, the chaos resilience schedules, and the
// transport-level tests).
//
// Two relations are identities, true of any snapshot the wrapper
// reports, because transport.ResilienceFrom derives them:
// Attempts = Calls − Rejected + Retries and Successes = Calls − Failures.
// ResilienceSnapshot.Conserves checks what the counted fields alone
// must satisfy (no more rejections than failures, no more failures than
// calls, no more recoveries than successes). The check is the
// comparison with the inner transport's own, independent counts:
//
//   - the inner transport's counters conserve (CheckStats),
//   - Attempts == inner Calls (resilience-attempt-accounting): every
//     retry is billed as its own inner call, so a retry the wrapper
//     fails to count, or a call that bypasses it, shows here,
//   - inner Drops + Blocked == Retries + Failures − Rejected
//     (resilience-fault-accounting): each transport-failed attempt is
//     exactly one inner drop or block — a retried-then-recovered call
//     contributes its failed attempts as retries, a call that fails
//     outright contributes retries plus one final failure, and a
//     breaker-rejected call never reaches the wire. Retried calls are
//     therefore never double-counted as drops, and drops are never
//     silently swallowed by the retry loop.
//
// Handler-level failures (RemoteError) are deliberately excluded: the
// wrapper counts them as answered, the inner transport as completed
// calls with a failure flag, and neither side retries them.
func CheckResilience(res transport.ResilienceSnapshot, inner transport.Snapshot) []Violation {
	var out []Violation
	if !res.Conserves() {
		out = append(out, Violation{
			Invariant: "resilience-conservation",
			Detail: fmt.Sprintf("calls=%d rejected=%d failures=%d recoveries=%d",
				res.Calls, res.Rejected, res.Failures, res.Recoveries),
		})
	}
	out = append(out, CheckStats(inner)...)
	if inner.Calls != res.Attempts {
		out = append(out, Violation{
			Invariant: "resilience-attempt-accounting",
			Detail: fmt.Sprintf("inner calls=%d != resilient attempts=%d (wrapper must be the transport's sole caller)",
				inner.Calls, res.Attempts),
		})
	}
	wantFaults := res.Retries + res.Failures - res.Rejected
	if res.Failures < res.Rejected {
		wantFaults = 0 // already reported by resilience-conservation
	}
	if got := inner.Drops + inner.Blocked; got != wantFaults {
		out = append(out, Violation{
			Invariant: "resilience-fault-accounting",
			Detail: fmt.Sprintf("inner drops+blocked=%d != retries+failures-rejected=%d (retried calls double- or under-counted as drops)",
				got, wantFaults),
		})
	}
	return out
}
