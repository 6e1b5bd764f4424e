package core

import (
	"sync"
	"sync/atomic"

	"peertrack/internal/moods"
	"peertrack/internal/probe"
)

// nameRef names a node by its place in the peer's nameTable: 4 bytes
// where the name is a 16-byte string header. Ref 0 is "", no node.
type nameRef uint32

// nameTable interns the node names a peer's stores hold — IOP links,
// index heads, cached gateways — so each is kept once a peer however
// many records name it. It is append-only: a ref names its node for
// the table's lifetime. The zero value is empty and allocates on first
// write, as the stores do, so a peer that stores no name pays a pointer.
//
// A read takes no lock: the names sit in an array behind an atomic
// load, the read-mostly shape of transport.Stats' per-type counters,
// copied only when it fills. A ref reaches a reader only through the
// store that holds it, whose lock orders the read after the interning,
// so the array the reader loads holds its name. Interning takes a
// mutex, and finds a name's ref through a table that indexes the array
// itself: ref r is position r.
type nameTable struct {
	p atomic.Pointer[interned] // nil until the first name
}

// interned is a nameTable's state once it holds a name.
type interned struct {
	mu    sync.Mutex                       // serialises ref's inserts
	refs  probe.Table                      // guarded by mu; the refs handed out are 1..refs.Len()
	names atomic.Pointer[[]moods.NodeName] // names[r] is ref r's; names[0] is ""
}

// ref returns n's ref, interning n on first sight.
func (t *nameTable) ref(n moods.NodeName) nameRef {
	if n == "" {
		return 0
	}
	in := t.p.Load()
	if in == nil {
		t.p.CompareAndSwap(nil, new(interned))
		in = t.p.Load()
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	names, h := in.names.Load(), probe.String(string(n))
	if r, ok := in.refs.Find(h, func(r int32) bool { return (*names)[r] == n }); ok {
		return nameRef(r)
	}
	r := nameRef(in.refs.Len() + 1)
	if names == nil || int(r) == len(*names) {
		grown := make([]moods.NodeName, max(8, 2*int(r)))
		if names != nil {
			copy(grown, *names)
		}
		names = &grown
		in.names.Store(names)
	}
	(*names)[r] = n
	in.refs.Insert(h, int32(r))
	return r
}

// name returns the node r names.
func (t *nameTable) name(r nameRef) moods.NodeName {
	if r == 0 {
		return ""
	}
	return (*t.p.Load().names.Load())[r]
}
