// Package replication tracks the bookkeeping of k-successor state
// replication: which versions of a node's replicated units its mirrors
// hold, and which replica units the node itself holds on behalf of
// other owners.
//
// A unit is one independently replicated piece of node state — a
// gateway index bucket (identified by its packed prefix key) or the
// node's whole IOP repository. The owner of a unit bumps its version on
// every mutation and pushes the change to its mirror set (the first
// k−1 live ring successors); the engine records which mirrors are
// known to be current so that repair can probe with a version check
// (one small message) instead of re-shipping full state, and so that
// whole-bucket transfers (evacuation, re-homing) can hand the existing
// mirror copies to the new owner in one step.
//
// The engine is pure bookkeeping: it never talks to the network, which
// keeps the transport out of every critical section. Each owned unit
// has one mirror stream; only its holder (Acquire … Release) bumps the
// version and pushes to the mirrors, no lock held, so the versions of a
// unit are issued and acknowledged in order.
package replication

import (
	"slices"
	"sort"
	"sync"

	"peertrack/internal/ids"
	"peertrack/internal/transport"
)

// Unit identifies one replicated state unit of a node.
type Unit struct {
	// Key is the packed prefix key of a gateway bucket. The individual
	// (non-grouped) store replicates as the single ids.NoPrefixKey
	// unit, matching how the store itself is keyed.
	Key ids.PrefixKey
	// Repo marks an IOP repository unit: the node's own (RepoUnit), or,
	// at a mirror, one per remote owner, told apart by Key.
	Repo bool
}

// IndexUnit is the unit of one gateway bucket.
func IndexUnit(key ids.PrefixKey) Unit { return Unit{Key: key} }

// RepoUnit is the unit of the node's IOP repository.
var RepoUnit = Unit{Key: ids.NoPrefixKey, Repo: true}

// unitLess orders units deterministically: index buckets in key order
// (the gateway store's canonical sweep order), the repo unit last.
func unitLess(a, b Unit) bool {
	if a.Repo != b.Repo {
		return !a.Repo
	}
	return a.Key < b.Key
}

// MirrorVersion records the version one mirror is known to hold.
type MirrorVersion struct {
	Addr    transport.Addr
	Version uint64
}

// OwnedMeta is the exportable bookkeeping of one owned unit. It rides
// along whole-bucket transfers so the receiving owner adopts the
// unit's existing mirror copies — repair after the transfer then costs
// one version probe per mirror instead of a full data push.
type OwnedMeta struct {
	Version uint64
	// Synced lists the mirrors known current at their version, sorted
	// by address.
	Synced []MirrorVersion
}

// HeldInfo describes one replica unit held for a remote owner.
type HeldInfo struct {
	Unit    Unit
	Owner   transport.Addr
	Version uint64
}

type ownedUnit struct {
	version uint64
	synced  map[transport.Addr]uint64
}

type heldUnit struct {
	owner   transport.Addr
	version uint64
	gen     uint64
}

// Engine is one node's replication bookkeeping. All methods are safe
// for concurrent use and none of them blocks on anything but the
// engine's own mutex.
type Engine struct {
	mu    sync.Mutex
	owned map[Unit]*ownedUnit
	held  map[Unit]heldUnit
	gen   uint64
	// streams maps each taken mirror stream to its holder's turn.
	streams map[Unit]turn
}

// NewEngine returns an empty engine. Maps allocate lazily on first
// write: every peer carries an engine, but at factor 1 none of them
// ever writes to it.
func NewEngine() *Engine {
	return &Engine{}
}

// turn is one caller's hold of a mirror stream: done closes when it ends;
// sends is the holder's word that it takes and sends what is queued.
type turn struct {
	done  chan struct{}
	sends bool
}

// Acquire takes unit u's mirror stream for a turn and returns nil, or,
// while another caller holds it, the channel that closes when that turn
// ends and whether it is a sending one. It never blocks: waiting is the
// caller's business.
func (e *Engine) Acquire(u Unit, sends bool) (<-chan struct{}, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if t, taken := e.streams[u]; taken {
		return t.done, t.sends
	}
	if e.streams == nil {
		e.streams = make(map[Unit]turn)
	}
	e.streams[u] = turn{make(chan struct{}), sends}
	return nil, false
}

// Release ends the holder's turn on unit u's stream and wakes the waiters.
func (e *Engine) Release(u Unit) {
	e.mu.Lock()
	defer e.mu.Unlock()
	close(e.streams[u].done)
	delete(e.streams, u)
}

// Bump registers a mutation of an owned unit and returns the new
// version. The first mutation of a unit yields version 1. Only the
// holder of the unit's stream calls it.
func (e *Engine) Bump(u Unit) uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.owned == nil {
		e.owned = make(map[Unit]*ownedUnit)
	}
	o := e.owned[u]
	if o == nil {
		o = &ownedUnit{synced: make(map[transport.Addr]uint64)}
		e.owned[u] = o
	}
	o.version++
	return o.version
}

// Version returns the current version of an owned unit.
func (e *Engine) Version(u Unit) (uint64, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	o := e.owned[u]
	if o == nil {
		return 0, false
	}
	return o.version, true
}

// SyncedAt returns the version mirror addr is known to hold (0 = none).
func (e *Engine) SyncedAt(u Unit, addr transport.Addr) uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	o := e.owned[u]
	if o == nil {
		return 0
	}
	return o.synced[addr]
}

// MarkSynced records that mirror addr holds version v of the unit.
func (e *Engine) MarkSynced(u Unit, addr transport.Addr, v uint64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if o := e.owned[u]; o != nil {
		o.synced[addr] = v
	}
}

// ClearSynced forgets what mirror addr holds (a push to it failed, or
// it left the mirror set); the next repair pass full-pushes to it.
func (e *Engine) ClearSynced(u Unit, addr transport.Addr) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if o := e.owned[u]; o != nil {
		delete(o.synced, addr)
	}
}

// ExportOwned copies the unit's bookkeeping for a transfer.
func (e *Engine) ExportOwned(u Unit) (OwnedMeta, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	o := e.owned[u]
	if o == nil {
		return OwnedMeta{}, false
	}
	return exportLocked(o), true
}

// DropOwned removes an owned unit, returning its final bookkeeping.
func (e *Engine) DropOwned(u Unit) (OwnedMeta, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	o := e.owned[u]
	if o == nil {
		return OwnedMeta{}, false
	}
	delete(e.owned, u)
	return exportLocked(o), true
}

func exportLocked(o *ownedUnit) OwnedMeta {
	m := OwnedMeta{Version: o.version, Synced: make([]MirrorVersion, 0, len(o.synced))}
	for a, v := range o.synced {
		m.Synced = append(m.Synced, MirrorVersion{Addr: a, Version: v})
	}
	sort.Slice(m.Synced, func(i, j int) bool { return m.Synced[i].Addr < m.Synced[j].Addr })
	return m
}

// AdoptOwned installs transferred bookkeeping for a unit this node now
// owns, replacing whatever it had.
func (e *Engine) AdoptOwned(u Unit, meta OwnedMeta) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.owned == nil {
		e.owned = make(map[Unit]*ownedUnit)
	}
	o := &ownedUnit{version: meta.Version, synced: make(map[transport.Addr]uint64, len(meta.Synced))}
	for _, mv := range meta.Synced {
		o.synced[mv.Addr] = mv.Version
	}
	e.owned[u] = o
}

// OwnedUnits lists the owned units in deterministic order.
func (e *Engine) OwnedUnits() []Unit {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]Unit, 0, len(e.owned))
	for u := range e.owned {
		out = append(out, u)
	}
	sort.Slice(out, func(i, j int) bool { return unitLess(out[i], out[j]) })
	return out
}

// RecordHeld notes that this node now holds version v of a unit on
// behalf of owner (a replica push arrived). It also counts as a touch
// for the current sync generation, so a freshly pushed unit is never
// garbage-collected by the pass that created it.
func (e *Engine) RecordHeld(u Unit, owner transport.Addr, v uint64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.held == nil {
		e.held = make(map[Unit]heldUnit)
	}
	e.held[u] = heldUnit{owner: owner, version: v, gen: e.gen}
}

// HeldMeta returns the provenance of a held unit.
func (e *Engine) HeldMeta(u Unit) (owner transport.Addr, version uint64, ok bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	h, ok := e.held[u]
	return h.owner, h.version, ok
}

// CheckHeld answers an owner's version probe: it reports whether this
// node holds the unit current at version v. On a match the recorded
// owner is updated to the probing owner — that is how ownership of an
// existing replica transfers with one probe — and the unit is marked
// live for the current sync generation.
func (e *Engine) CheckHeld(u Unit, owner transport.Addr, v uint64) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	h, ok := e.held[u]
	if !ok || h.version != v {
		return false
	}
	h.owner = owner
	h.gen = e.gen
	e.held[u] = h
	return true
}

// DropHeld removes a held unit.
func (e *Engine) DropHeld(u Unit) {
	e.mu.Lock()
	defer e.mu.Unlock()
	delete(e.held, u)
}

// heldLocked lists the held units keep accepts, in unit order.
func (e *Engine) heldLocked(keep func(heldUnit) bool) []HeldInfo {
	out := make([]HeldInfo, 0, len(e.held))
	for u, h := range e.held {
		if keep(h) {
			out = append(out, HeldInfo{Unit: u, Owner: h.owner, Version: h.version})
		}
	}
	sort.Slice(out, func(i, j int) bool { return unitLess(out[i].Unit, out[j].Unit) })
	return out
}

// Held lists every held unit with its provenance, in unit order.
func (e *Engine) Held() []HeldInfo {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.heldLocked(func(heldUnit) bool { return true })
}

// HeldFor lists the units held for owner, in unit order — the promotion
// candidates once the failure detector declares it dead.
func (e *Engine) HeldFor(owner transport.Addr) []HeldInfo {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.heldLocked(func(h heldUnit) bool { return h.owner == owner })
}

// BeginSync opens a repair generation: owner probes and pushes arriving
// after this call mark held units live; StaleHeld then reports the
// units no owner claimed.
func (e *Engine) BeginSync() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.gen++
}

// StaleHeld lists the held units not touched since BeginSync — orphans
// whose owner no longer replicates to this node — in unit order. dead
// is the failure detector's current verdict, nil without one: the units
// of a dead owner are not orphans — it cannot refresh them, and they may
// be the last surviving copy — for as long as the detector says so.
func (e *Engine) StaleHeld(dead func(transport.Addr) bool) []HeldInfo {
	e.mu.Lock()
	stale := e.heldLocked(func(h heldUnit) bool { return h.gen < e.gen })
	e.mu.Unlock()
	if dead == nil {
		return stale
	}
	return slices.DeleteFunc(stale, func(h HeldInfo) bool { return dead(h.Owner) })
}
