// Package allowcheck is the //lint:allow hygiene fixture: a bare
// allow, an allow for an unknown pass, a stale allow, and a healthy
// one. The expectations live in callgraph_test.go (programmatic,
// because a want comment cannot share a line with a bare allow without
// becoming its "reason").
package allowcheck

import "time"

// bare: the allow suppresses the detwall finding but is itself flagged
// for the missing reason.
func bare() time.Time {
	//lint:allow detwall
	return time.Now()
}

// unknown: no pass by that name exists.
func unknown() int {
	//lint:allow nosuchpass because reasons
	return 1
}

// stale: nothing on this line trips any pass, so the comment is dead.
func stale() int {
	//lint:allow detrand leftover from a removed rand call
	return 2
}

// good: known pass, reason given, suppression exercised.
func good() time.Time {
	//lint:allow detwall wall time used for operator display only
	return time.Now()
}
