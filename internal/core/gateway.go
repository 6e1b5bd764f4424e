package core

import (
	"sort"
	"sync"
	"time"

	"peertrack/internal/ids"
	"peertrack/internal/moods"
	"peertrack/internal/transport"
)

// IndexEntry is one object's gateway index record: its latest known
// location and the location before that — the head of the distributed
// doubly-linked IOP list.
type IndexEntry struct {
	Object  moods.ObjectID
	ID      ids.ID         // SHA1(Object), carried to avoid re-hashing
	Latest  moods.NodeName // node of the most recent capture
	Prev    moods.NodeName // node of the capture before that ("" = none)
	Arrived time.Duration  // arrival time at Latest
	Indexed time.Duration  // when this record was (re)indexed, drives FIFO delegation
}

func (e IndexEntry) wireSize() int {
	return len(e.Object) + ids.Bytes + len(e.Latest) + len(e.Prev) + 16
}

// sizeOfEntries is the on-wire cost of a run of index records.
func sizeOfEntries(es []IndexEntry) int {
	n := 0
	for _, e := range es {
		n += e.wireSize()
	}
	return n
}

// entryWireMin is the fewest bytes an IndexEntry occupies on the wire.
const entryWireMin = 3*stringWireMin + ids.Bytes + 16

func appendEntry(b []byte, e IndexEntry) []byte {
	b = transport.AppendID(transport.AppendString(b, e.Object), e.ID)
	b = transport.AppendString(transport.AppendString(b, e.Latest), e.Prev)
	return transport.AppendInt(transport.AppendInt(b, e.Arrived), e.Indexed)
}

func readEntry(r *transport.Reader) IndexEntry {
	return IndexEntry{
		Object:  moods.ObjectID(r.String()),
		ID:      r.ID(),
		Latest:  moods.NodeName(r.String()),
		Prev:    moods.NodeName(r.String()),
		Arrived: time.Duration(r.Int()),
		Indexed: time.Duration(r.Int()),
	}
}

func appendEntries(b []byte, es []IndexEntry) []byte {
	return transport.AppendSlice(b, es, appendEntry)
}

func readEntries(r *transport.Reader) []IndexEntry {
	return transport.ReadSlice(r, entryWireMin, readEntry)
}

// entryIDs lists the hashed ids of es, in order.
func entryIDs(es []IndexEntry) []ids.ID {
	out := make([]ids.ID, len(es))
	for i, e := range es {
		out[i] = e.ID
	}
	return out
}

// missingFrom returns the ids of want that no entry of found answers,
// in want's order (nil when every one was found).
func missingFrom(want []ids.ID, found []IndexEntry) []ids.ID {
	have := make(map[ids.ID]bool, len(found))
	for _, e := range found {
		have[e.ID] = true
	}
	var out []ids.ID
	for _, id := range want {
		if !have[id] {
			out = append(out, id)
		}
	}
	return out
}

// bucket holds the index records of one prefix group at its gateway
// node. Entries live in a single slab slice in insertion (FIFO) order —
// the order α-delegation evicts in — with a side index from hashed id
// to slab slot. Removals tombstone the slot (zero Object); the slab is
// compacted once tombstones outnumber live entries. Compared to a
// map[ids.ID]*IndexEntry plus a separate fifo slice, the slab stores
// entries contiguously with no per-entry heap object, which is what
// makes multi-million-object gateways fit in memory at Scale.XL. The
// group's prefix is not stored: the store's key is its packed form.
type bucket struct {
	idx  map[ids.ID]int32 // hashed id → slot in slab
	slab []IndexEntry     // FIFO order; dead slots have empty Object
	dead int
	// delegated is true once any record was pushed down to a child,
	// telling lookups and refreshes that descendants may hold records.
	delegated bool
}

func newBucket() *bucket {
	return &bucket{idx: make(map[ids.ID]int32)}
}

// upsert inserts or updates e. The update path (existing ID) is the
// steady state and stays allocation-free; first insertion of an ID may
// grow the slab.
func (b *bucket) upsert(e IndexEntry) {
	if slot, exists := b.idx[e.ID]; exists {
		b.slab[slot] = e // update in place, keeping FIFO position
		return
	}
	b.insert(e)
}

// insert appends e, whose id the bucket does not hold.
func (b *bucket) insert(e IndexEntry) {
	b.idx[e.ID] = int32(len(b.slab))
	b.slab = append(b.slab, e)
}

// get returns the live entry for id, if present.
func (b *bucket) get(id ids.ID) (IndexEntry, bool) {
	slot, ok := b.idx[id]
	if !ok {
		return IndexEntry{}, false
	}
	return b.slab[slot], true
}

func (b *bucket) remove(id ids.ID) {
	slot, ok := b.idx[id]
	if !ok {
		return
	}
	b.slab[slot] = IndexEntry{} // release string references
	delete(b.idx, id)
	b.dead++
	if b.dead > len(b.idx) && b.dead >= 32 {
		b.compact()
	}
}

// compact rewrites the slab without tombstones, preserving FIFO order.
func (b *bucket) compact() {
	w := 0
	for r := range b.slab {
		if b.slab[r].Object == "" {
			continue
		}
		b.slab[w] = b.slab[r]
		b.idx[b.slab[w].ID] = int32(w)
		w++
	}
	for r := w; r < len(b.slab); r++ {
		b.slab[r] = IndexEntry{}
	}
	b.slab = b.slab[:w]
	b.dead = 0
}

// live returns copies of up to n live entries in FIFO (earliest-indexed)
// order; len(b.idx) asks for all of them.
func (b *bucket) live(n int) []IndexEntry {
	out := make([]IndexEntry, 0, n)
	for _, e := range b.slab {
		if len(out) >= n {
			break
		}
		if e.Object != "" {
			out = append(out, e)
		}
	}
	return out
}

// individualKey is the packed bucket key for per-object records of
// individual-indexing mode. ids.NoPrefixKey is not a valid prefix
// encoding and sorts after every real prefix key — the same relative
// order the old "@individual" string key had among binary strings.
const individualKey = ids.NoPrefixKey

// validBucketKey reports whether k can key a bucket: the individual
// bucket, or a well-formed packed prefix (wire input is checked with it
// before k.Prefix(), which panics on a malformed key).
func validBucketKey(k ids.PrefixKey) bool {
	return k == individualKey || k.Len() <= ids.MaxKeyLen
}

// bucketKeyName renders a packed bucket key in the exported string form
// (binary prefix string, or the individual-bucket name).
func bucketKeyName(k ids.PrefixKey) string {
	if k == individualKey {
		return individualBucket
	}
	return k.String()
}

// parseBucketKey is the inverse of bucketKeyName.
func parseBucketKey(s string) (ids.PrefixKey, error) {
	if s == individualBucket {
		return individualKey, nil
	}
	p, err := ids.ParsePrefix(s)
	if err != nil {
		return 0, err
	}
	return p.Key(), nil
}

// gatewayStore is the per-node storage for every prefix bucket (and,
// under individual indexing, per-object records in one dedicated
// bucket) this node is the gateway of. Buckets are keyed by the packed
// ids.PrefixKey — one word to hash and compare instead of a heap
// string — and every operation names its bucket by that key alone.
type gatewayStore struct {
	mu      sync.Mutex // not RW: a reader holds it for a probe or two, as briefly as a writer
	buckets map[ids.PrefixKey]*bucket
	dirty   map[ids.PrefixKey][]ids.ID // per bucket, the ids named (touch) since takeDirty
}

func newGatewayStore() *gatewayStore {
	return &gatewayStore{}
}

// upsert inserts or updates an entry in the bucket keyed key, creating
// the bucket on first use.
func (g *gatewayStore) upsert(key ids.PrefixKey, e IndexEntry) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.bucketFor(key).upsert(e)
}

// bucketFor returns the bucket keyed key, creating it on first use. The
// caller holds g.mu for writing.
func (g *gatewayStore) bucketFor(key ids.PrefixKey) *bucket {
	b, ok := g.buckets[key]
	if !ok {
		if g.buckets == nil {
			g.buckets = make(map[ids.PrefixKey]*bucket)
		}
		b = newBucket()
		g.buckets[key] = b
	}
	return b
}

// headMove is how an arrival relates to the IOP head it met.
type headMove int

const (
	headFirst headMove = iota // no head: the object's first sighting
	headSame                  // re-sighting at the head's node
	headMoved                 // the head moved to the arrival's node
	headLate                  // older than the head, which stays put
)

// advance applies one arrival — e names the object, the reporting node
// and the arrival time — to the object's IOP head in the bucket keyed
// key: lookup, Arrived comparison and upsert under one lock hold, so
// racing arrivals of one object cannot put an older head back. It is the
// one rule by which an arrival moves a head, and returns the head it saw
// with what it did about it. An arrival at or after the head's own
// becomes the head, its Prev the old head's node when the object moved
// and the old head's Prev when it did not; an earlier one leaves the
// head alone (the caller splices it into the list: stitchInsert). When
// the bucket holds no record, fallback — the individual path's
// replica-derived head, nil when there is none — is the head seen.
// The bucket and the record's slot are looked up once.
func (g *gatewayStore) advance(key ids.PrefixKey, e IndexEntry, fallback *IndexEntry) (IndexEntry, headMove) {
	g.mu.Lock()
	defer g.mu.Unlock()
	b := g.buckets[key]
	var at *IndexEntry // the record's slot, nil when the bucket holds none
	if b != nil {
		if slot, ok := b.idx[e.ID]; ok {
			at = &b.slab[slot]
		}
	}
	head := at
	if head == nil {
		head = fallback
	}
	var prev IndexEntry
	move := headFirst
	if head != nil {
		prev = *head
		switch {
		case e.Arrived < prev.Arrived:
			return prev, headLate
		case prev.Latest != e.Latest:
			move, e.Prev = headMoved, prev.Latest
		default:
			move, e.Prev = headSame, prev.Prev
		}
	}
	switch {
	case at != nil:
		*at = e
	case b != nil:
		b.insert(e)
	default:
		g.bucketFor(key).insert(e)
	}
	return prev, move
}

// setPrev records prev as the node before the head of object id, if the
// head still has the arrival time a stitch walked back from; a head that
// advanced in the meantime keeps the Prev its own arrival gave it.
func (g *gatewayStore) setPrev(key ids.PrefixKey, id ids.ID, arrived time.Duration, prev moods.NodeName) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	b := g.buckets[key]
	if b == nil {
		return false
	}
	head, ok := b.get(id)
	if !ok || head.Arrived != arrived {
		return false
	}
	head.Prev = prev
	b.upsert(head)
	return true
}

// lookup finds an entry for object id in the bucket keyed key.
func (g *gatewayStore) lookup(key ids.PrefixKey, id ids.ID) (IndexEntry, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	b := g.buckets[key]
	if b == nil {
		return IndexEntry{}, false
	}
	return b.get(id)
}

// take removes and returns the entries for the given object ids in the
// bucket keyed key (move semantics for refresh), plus the bucket's
// delegated flag.
func (g *gatewayStore) take(key ids.PrefixKey, objs []ids.ID) ([]IndexEntry, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	b := g.buckets[key]
	if b == nil {
		return nil, false
	}
	var out []IndexEntry
	for _, id := range objs {
		if e, ok := b.get(id); ok {
			out = append(out, e)
			b.remove(id)
		}
	}
	return out, b.delegated
}

// query returns copies of the entries for the given object ids without
// removing them, plus the delegated flag.
func (g *gatewayStore) query(key ids.PrefixKey, objs []ids.ID) ([]IndexEntry, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	b := g.buckets[key]
	if b == nil {
		return nil, false
	}
	var out []IndexEntry
	for _, id := range objs {
		if e, ok := b.get(id); ok {
			out = append(out, e)
		}
	}
	return out, b.delegated
}

// touch queues ids of the bucket keyed key for its next mirror push.
func (g *gatewayStore) touch(key ids.PrefixKey, objs []ids.ID) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.dirty == nil {
		g.dirty = make(map[ids.PrefixKey][]ids.ID)
	}
	g.dirty[key] = append(g.dirty[key], objs...)
}

// takeDirty empties the bucket's queue and returns it.
func (g *gatewayStore) takeDirty(key ids.PrefixKey) []ids.ID {
	g.mu.Lock()
	defer g.mu.Unlock()
	touched := g.dirty[key]
	delete(g.dirty, key)
	return touched
}

// totalEntries counts all index records held by this node.
func (g *gatewayStore) totalEntries() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	n := 0
	for _, b := range g.buckets {
		n += len(b.idx)
	}
	return n
}

// bucketKeys returns all bucket keys currently present, sorted so
// migration and refresh sweeps visit buckets in a seed-independent
// order. Numeric PrefixKey order equals the lexicographic order of the
// old string keys (with the individual bucket last), so sweep order is
// unchanged by the packed representation.
func (g *gatewayStore) bucketKeys() []ids.PrefixKey {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]ids.PrefixKey, 0, len(g.buckets))
	for k := range g.buckets {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// has reports whether a bucket keyed key exists, empty or not.
func (g *gatewayStore) has(key ids.PrefixKey) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.buckets[key] != nil
}

// drain deletes the bucket keyed key and returns its entries in FIFO
// order plus its delegated flag (split/merge migration, hand-off,
// replica promotion).
func (g *gatewayStore) drain(key ids.PrefixKey) ([]IndexEntry, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	b := g.buckets[key]
	if b == nil {
		return nil, false
	}
	delete(g.buckets, key)
	return b.live(len(b.idx)), b.delegated
}

// dropBucket deletes the bucket keyed key outright.
func (g *gatewayStore) dropBucket(key ids.PrefixKey) {
	g.mu.Lock()
	delete(g.buckets, key)
	g.mu.Unlock()
}

// overflow returns the α-fraction FIFO-earliest entries of the bucket
// keyed key once it holds more than threshold records, without removing
// them: the caller removes what it managed to delegate.
func (g *gatewayStore) overflow(key ids.PrefixKey, threshold int, alpha float64) []IndexEntry {
	g.mu.Lock()
	defer g.mu.Unlock()
	b := g.buckets[key]
	if b == nil || len(b.idx) <= threshold {
		return nil
	}
	return b.live(int(alpha * float64(len(b.idx))))
}

// markDelegated flags the bucket keyed key as having descendants.
func (g *gatewayStore) markDelegated(key ids.PrefixKey) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if b := g.buckets[key]; b != nil {
		b.delegated = true
	}
}

// delegatedFlag reads the bucket's delegated flag (false if absent).
func (g *gatewayStore) delegatedFlag(key ids.PrefixKey) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	b := g.buckets[key]
	return b != nil && b.delegated
}

// dumpBucket returns copies of the bucket's live entries sorted by
// hashed id, plus its delegated flag (replication full pushes).
func (g *gatewayStore) dumpBucket(key ids.PrefixKey) ([]IndexEntry, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	b := g.buckets[key]
	if b == nil {
		return nil, false
	}
	out := b.live(len(b.idx))
	sort.Slice(out, func(i, j int) bool { return out[i].ID.Less(out[j].ID) })
	return out, b.delegated
}

// replaceBucket replaces the bucket's contents and delegated flag
// wholesale (replica full-push receive).
func (g *gatewayStore) replaceBucket(key ids.PrefixKey, entries []IndexEntry, delegated bool) {
	b := newBucket()
	b.delegated = delegated
	for _, e := range entries {
		b.upsert(e)
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.buckets == nil {
		g.buckets = make(map[ids.PrefixKey]*bucket)
	}
	g.buckets[key] = b
}

// removeAll deletes the given object ids from the bucket keyed key.
func (g *gatewayStore) removeAll(key ids.PrefixKey, objs []ids.ID) {
	g.mu.Lock()
	defer g.mu.Unlock()
	b := g.buckets[key]
	if b == nil {
		return
	}
	for _, id := range objs {
		b.remove(id)
	}
}
