package core

import "peertrack/internal/telemetry"

// peerTelemetry carries a peer's prebuilt instrument handles. The zero
// value (all-nil handles) is a complete no-op; instruments are shared
// by name across every peer wired to the same registry, so the counters
// read as whole-network totals and the buffered gauge as the total
// number of observations sitting in open windows anywhere.
type peerTelemetry struct {
	reg    *telemetry.Registry // for counters created by their first count: repair_pushes.<cause>, coalesced
	tracer *telemetry.Tracer

	flushes     *telemetry.Counter   // windows closed with at least one event
	flushGroups *telemetry.Histogram // prefix groups per flush
	rebuffered  *telemetry.Counter   // events re-buffered after a failed group send
	buffered    *telemetry.Gauge     // events currently in open windows

	deferredStitches  *telemetry.Counter // late stitches deferred on an unreachable segment
	abandonedStitches *telemetry.Counter // late stitches given up after lateStitchRetries

	delegations      *telemetry.Counter // triangle delegation pushes (per child message)
	delegatedRecords *telemetry.Counter // index records moved by delegation
	ascentFetches    *telemetry.Counter // refresh fetches to shorter-prefix gateways
	descentFetches   *telemetry.Counter // refresh fetches into triangle children

	locates    *telemetry.Counter
	locateHops *telemetry.Histogram
	traces     *telemetry.Counter
	traceHops  *telemetry.Histogram

	gwDeadEvictions *telemetry.Counter // cached resolutions evicted on gossip dead verdicts

	replMirrorWrites *telemetry.Counter // replica writes piggybacked on index/stitch traffic
	replRepairPushes *telemetry.Counter // whole-unit pushes; split by cause through reg
	replProbes       *telemetry.Counter // anti-entropy version probes to mirrors
	replPromotions   *telemetry.Counter // held replicas promoted to owned buckets
	replFallthrough  *telemetry.Counter // reads served from a replica after a primary failure
	replHandoffs     *telemetry.Counter // whole-bucket version-line handoffs adopted
	replDrops        *telemetry.Counter // stale orphaned replicas garbage-collected
	replRestores     *telemetry.Counter // stale held units shipped back to a live owner before GC
}

// What a span step can say. The texts are static and their arguments are
// stored as given; a step is rendered only when its span is read.
var (
	noteArrive         = telemetry.NewNote("gateway: %d events from %s, %d unknown")
	noteRefresh        = telemetry.NewNote("refresh: %d of %d unknown resolved from ascent")
	noteM2             = telemetry.NewNote("M2: %d objects moved on to %s")
	noteM3             = telemetry.NewNote("M3: %d inbound links")
	noteDeferred       = telemetry.NewNote("deferred %d late stitches")
	noteDelegateFailed = telemetry.NewNote("delegate %d records to %b failed: %s")
	noteDelegated      = telemetry.NewNote("delegated %d records to child %b")
	noteOverlayLookup  = telemetry.NewNote("gateway lookup: %d overlay hops")
	noteReplicaObject  = telemetry.NewNote("replica fallthrough: hit for %s")
	noteReplicaBucket  = telemetry.NewNote("replica fallthrough: hit for %b")
	noteUnreachable    = telemetry.NewNote("gateway %b unreachable: %s")
	noteMiss           = telemetry.NewNote("gateway %b: miss (delegated=%t)")
	noteHit            = telemetry.NewNote("gateway %b: hit, head at %s")
	noteWalk           = telemetry.NewNote("IOP walk: visit arrived %v")
)

// setTelemetry builds the handles on reg (NewPeer); a nil registry
// leaves every handle a no-op.
func (p *Peer) setTelemetry(reg *telemetry.Registry) {
	p.tel = peerTelemetry{
		reg:    reg,
		tracer: reg.Tracer(),

		flushes:     reg.Counter("core.window.flushes"),
		flushGroups: reg.Histogram("core.window.groups", telemetry.GroupBuckets()),
		rebuffered:  reg.Counter("core.window.rebuffered"),
		buffered:    reg.Gauge("core.window.buffered"),

		deferredStitches:  reg.Counter("core.stitch.deferred"),
		abandonedStitches: reg.Counter("core.stitch.abandoned"),

		delegations:      reg.Counter("core.triangle.delegations"),
		delegatedRecords: reg.Counter("core.triangle.delegated_records"),
		ascentFetches:    reg.Counter("core.triangle.ascent_fetches"),
		descentFetches:   reg.Counter("core.triangle.descent_fetches"),

		locates:    reg.Counter("core.locates"),
		locateHops: reg.Histogram("core.locate.hops", telemetry.HopBuckets()),
		traces:     reg.Counter("core.traces"),
		traceHops:  reg.Histogram("core.trace.hops", telemetry.HopBuckets()),

		gwDeadEvictions: reg.Counter("core.gwcache.dead_evictions"),

		replMirrorWrites: reg.Counter("core.replication.mirror_writes"),
		replRepairPushes: reg.Counter("core.replication.repair_pushes"),
		replProbes:       reg.Counter("core.replication.probes"),
		replPromotions:   reg.Counter("core.replication.promotions"),
		replFallthrough:  reg.Counter("core.replication.fallthrough_reads"),
		replHandoffs:     reg.Counter("core.replication.handoffs"),
		replDrops:        reg.Counter("core.replication.stale_drops"),
		replRestores:     reg.Counter("core.replication.restores"),
	}
}
