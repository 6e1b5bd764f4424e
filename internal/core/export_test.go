package core

import (
	"bytes"

	"peertrack/internal/ids"
)

// Seams for the external test package, which imports what imports core.

// WriteUnpushed writes e into the bucket keyed key without the push
// that follows it: a writer between its store write and its turn on the
// unit's stream.
func (p *Peer) WriteUnpushed(key ids.PrefixKey, e IndexEntry) {
	p.gw.upsert(key, e)
}

// Restart gives p restart semantics (wipe) and restores snapshot into it.
func Restart(p *Peer, snapshot []byte) error {
	wipe(p)
	return p.Restore(bytes.NewReader(snapshot))
}
