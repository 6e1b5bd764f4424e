package core

import (
	"sort"
	"sync"
	"time"

	"peertrack/internal/ids"
	"peertrack/internal/moods"
	"peertrack/internal/probe"
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

// slabEntry is an IndexEntry as a bucket keeps it: its two node names
// as refs into the peer's nameTable, 64 bytes where the entry is 88.
// IndexEntry is built at the store boundary (gatewayStore.entry).
type slabEntry struct {
	Object           moods.ObjectID
	ID               ids.ID
	Latest, Prev     nameRef
	Arrived, Indexed time.Duration
}

// bucket holds the index records of one prefix group at its gateway
// node. Entries live in a single slab slice in insertion (FIFO) order —
// the order α-delegation evicts in — indexed by hashed id. Removals
// tombstone the slot (zero Object); the slab is compacted once
// tombstones outnumber live entries. The slab stores entries
// contiguously with no per-entry heap object, which is what makes
// multi-million-object gateways fit in memory at Scale.XL. The group's
// prefix is not stored: the store's key is its packed form.
type bucket struct {
	idx  probe.Table // hashed id → slot in slab
	slab []slabEntry // FIFO order; dead slots have empty Object
	dead int32
	// delegated is true once any record was pushed down to a child,
	// telling lookups and refreshes that descendants may hold records.
	delegated bool
}

// upsert inserts or updates e. The update path (existing ID) is the
// steady state and stays allocation-free; first insertion of an ID may
// grow the slab.
func (b *bucket) upsert(e slabEntry) {
	if at := b.at(e.ID); at != nil {
		*at = e // update in place, keeping FIFO position
		return
	}
	b.insert(e)
}

// insert appends e, whose id the bucket does not hold.
func (b *bucket) insert(e slabEntry) {
	b.idx.Insert(probe.Bytes(e.ID[:]), int32(len(b.slab)))
	b.slab = append(b.slab, e)
}

// find returns the slab slot of the live entry for id.
func (b *bucket) find(id ids.ID) (int32, bool) {
	return b.idx.Find(probe.Bytes(id[:]), func(i int32) bool { return b.slab[i].ID == id })
}

// at returns the slot of the live entry for id, nil if absent.
func (b *bucket) at(id ids.ID) *slabEntry {
	slot, ok := b.find(id)
	if !ok {
		return nil
	}
	return &b.slab[slot]
}

func (b *bucket) remove(id ids.ID) bool {
	slot, ok := b.find(id)
	if !ok {
		return false
	}
	b.idx.Delete(probe.Bytes(id[:]), slot)
	b.slab[slot] = slabEntry{} // release the id string
	b.dead++
	if int(b.dead) > b.idx.Len() && b.dead >= 32 {
		b.compact()
	}
	return true
}

// compact rewrites the slab without tombstones, preserving FIFO order,
// and re-indexes it.
func (b *bucket) compact() {
	b.idx = probe.Table{}
	w := 0
	for r := range b.slab {
		if b.slab[r].Object == "" {
			continue
		}
		b.slab[w] = b.slab[r]
		b.idx.Insert(probe.Bytes(b.slab[w].ID[:]), int32(w))
		w++
	}
	clear(b.slab[w:])
	b.slab = b.slab[:w]
	b.dead = 0
}

// individualKey is the bucket key for per-object records of
// individual-indexing mode: ids.NoPrefixKey, which no prefix can equal
// and whose string form is "@individual".
const individualKey = ids.NoPrefixKey

// gatewayStore is the per-node storage for every prefix bucket (and,
// under individual indexing, per-object records in one dedicated
// bucket) this node is the gateway of. Buckets are keyed by the packed
// ids.PrefixKey — one word to hash and compare instead of a heap
// string — and every operation names its bucket by that key alone.
type gatewayStore struct {
	mu      sync.Mutex // not RW: a reader holds it for a probe or two, as briefly as a writer
	names   *nameTable
	buckets map[ids.PrefixKey]*bucket
	// dirty, non-nil only when the store is mirrored, holds per bucket
	// the ids written since takeDirty: each per-record writer queues
	// what it wrote in the lock hold that wrote it, so no reader (a
	// snapshot) sees a change the queue lacks.
	dirty map[ids.PrefixKey][]ids.ID
}

// newGatewayStore returns an empty store naming nodes in names; a
// mirrored one queues its writes for the mirror pushes.
func newGatewayStore(names *nameTable, mirrored bool) *gatewayStore {
	g := &gatewayStore{names: names}
	if mirrored {
		g.dirty = make(map[ids.PrefixKey][]ids.ID)
	}
	return g
}

// queue names id for the next mirror push of the bucket keyed key; g.mu
// is held. An unmirrored store queues nothing.
func (g *gatewayStore) queue(key ids.PrefixKey, id ids.ID) {
	if g.dirty != nil {
		g.dirty[key] = append(g.dirty[key], id)
	}
}

// slabEntry is e as a bucket keeps it, interning its node names.
func (g *gatewayStore) slabEntry(e IndexEntry) slabEntry {
	return slabEntry{e.Object, e.ID, g.names.ref(e.Latest), g.names.ref(e.Prev), e.Arrived, e.Indexed}
}

// entry is the IndexEntry a bucket's e stands for.
func (g *gatewayStore) entry(e slabEntry) IndexEntry {
	return IndexEntry{e.Object, e.ID, g.names.name(e.Latest), g.names.name(e.Prev), e.Arrived, e.Indexed}
}

// get returns the live entry for id in b, if present; g.mu must be
// held.
func (g *gatewayStore) get(b *bucket, id ids.ID) (IndexEntry, bool) {
	at := b.at(id)
	if at == nil {
		return IndexEntry{}, false
	}
	return g.entry(*at), true
}

// live returns copies of up to n live entries of b in FIFO
// (earliest-indexed) order; b.idx.Len() asks for all of them. g.mu must
// be held.
func (g *gatewayStore) live(b *bucket, n int) []IndexEntry {
	out := make([]IndexEntry, 0, n)
	for _, e := range b.slab {
		if len(out) >= n {
			break
		}
		if e.Object != "" {
			out = append(out, g.entry(e))
		}
	}
	return out
}

// upsert inserts or updates an entry in the bucket keyed key, creating
// the bucket on first use, and queues it.
func (g *gatewayStore) upsert(key ids.PrefixKey, e IndexEntry) {
	se := g.slabEntry(e)
	g.mu.Lock()
	defer g.mu.Unlock()
	g.bucketFor(key).upsert(se)
	g.queue(key, e.ID)
}

// put is upsert for a record the bucket's mirrors already hold at its
// version (handed over or back, or promoted, with the version line):
// nothing is queued.
func (g *gatewayStore) put(key ids.PrefixKey, e IndexEntry) {
	se := g.slabEntry(e)
	g.mu.Lock()
	defer g.mu.Unlock()
	g.bucketFor(key).upsert(se)
}

// bucketFor returns the bucket keyed key, creating it on first use. The
// caller holds g.mu for writing.
func (g *gatewayStore) bucketFor(key ids.PrefixKey) *bucket {
	b, ok := g.buckets[key]
	if !ok {
		if g.buckets == nil {
			g.buckets = make(map[ids.PrefixKey]*bucket)
		}
		b = new(bucket)
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
// the bucket holds no record, fallback — the head the arrival's lookup
// found in a replica copy, nil when there is none — is the head seen, in
// every bucket alike. The bucket and the record's slot are looked up
// once.
func (g *gatewayStore) advance(key ids.PrefixKey, e IndexEntry, fallback *IndexEntry) (IndexEntry, headMove) {
	rec := g.slabEntry(e)
	var fb slabEntry
	if fallback != nil {
		fb = g.slabEntry(*fallback)
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	b := g.buckets[key]
	var at *slabEntry // the record's slot, nil when the bucket holds none
	if b != nil {
		at = b.at(e.ID)
	}
	head := at
	if head == nil && fallback != nil {
		head = &fb
	}
	var prev IndexEntry
	move := headFirst
	if head != nil {
		prev = g.entry(*head)
		switch {
		case rec.Arrived < head.Arrived:
			return prev, headLate
		case head.Latest != rec.Latest:
			move, rec.Prev = headMoved, head.Latest
		default:
			move, rec.Prev = headSame, head.Prev
		}
	}
	switch {
	case at != nil:
		*at = rec
	case b != nil:
		b.insert(rec)
	default:
		g.bucketFor(key).insert(rec)
	}
	g.queue(key, e.ID)
	return prev, move
}

// setPrev records prev as the node before the head of object id, if the
// head still has the arrival time a stitch walked back from; a head that
// advanced in the meantime keeps the Prev its own arrival gave it.
func (g *gatewayStore) setPrev(key ids.PrefixKey, id ids.ID, arrived time.Duration, prev moods.NodeName) bool {
	ref := g.names.ref(prev)
	g.mu.Lock()
	defer g.mu.Unlock()
	b := g.buckets[key]
	if b == nil {
		return false
	}
	head := b.at(id)
	if head == nil || head.Arrived != arrived {
		return false
	}
	head.Prev = ref
	g.queue(key, id)
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
	return g.get(b, id)
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
		if e, ok := g.get(b, id); ok {
			out = append(out, e)
			b.remove(id)
			g.queue(key, id)
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
		if e, ok := g.get(b, id); ok {
			out = append(out, e)
		}
	}
	return out, b.delegated
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
		n += b.idx.Len()
	}
	return n
}

// bucketKeys returns all bucket keys currently present, sorted so
// migration and refresh sweeps visit buckets in a seed-independent
// order. Numeric PrefixKey order equals the lexicographic order of the
// keys' string forms (with the individual bucket last), so a sweep
// visits buckets in the order their names sort.
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

// drain deletes the bucket keyed key and its queue, and returns its
// entries in FIFO order, its delegated flag and whether ids of it were
// queued (split/merge migration, hand-off, replica promotion). The
// records leave with the queue: no writer's turn finds ids of a bucket
// that is gone.
func (g *gatewayStore) drain(key ids.PrefixKey) ([]IndexEntry, bool, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	b := g.buckets[key]
	if b == nil {
		return nil, false, false
	}
	delete(g.buckets, key)
	queued := len(g.dirty[key]) > 0
	delete(g.dirty, key)
	return g.live(b, b.idx.Len()), b.delegated, queued
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
	if b == nil || b.idx.Len() <= threshold {
		return nil
	}
	return g.live(b, int(alpha*float64(b.idx.Len())))
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
	out, delegated, _ := g.whole(key)
	sort.Slice(out, func(i, j int) bool { return out[i].ID.Less(out[j].ID) })
	return out, delegated
}

// whole returns the bucket's live entries in FIFO order, its delegated
// flag, and whether ids of it wait for the next mirror push
// (persistence).
func (g *gatewayStore) whole(key ids.PrefixKey) ([]IndexEntry, bool, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	b := g.buckets[key]
	if b == nil {
		return nil, false, false
	}
	return g.live(b, b.idx.Len()), b.delegated, len(g.dirty[key]) > 0
}

// replaceBucket replaces the bucket's contents and delegated flag
// wholesale (replica full-push receive).
func (g *gatewayStore) replaceBucket(key ids.PrefixKey, entries []IndexEntry, delegated bool) {
	b := new(bucket)
	b.delegated = delegated
	for _, e := range entries {
		b.upsert(g.slabEntry(e))
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.buckets == nil {
		g.buckets = make(map[ids.PrefixKey]*bucket)
	}
	g.buckets[key] = b
}

// removeAll deletes the given object ids from the bucket keyed key and
// queues each it held.
func (g *gatewayStore) removeAll(key ids.PrefixKey, objs []ids.ID) {
	g.mu.Lock()
	defer g.mu.Unlock()
	b := g.buckets[key]
	if b == nil {
		return
	}
	for _, id := range objs {
		if b.remove(id) {
			g.queue(key, id)
		}
	}
}
