package exp

// Warm-state reuse plumbing: experiments that repeat the same expensive
// setup (a fork warm-up, a pristine framework for a sweep family) build
// it once, capture a core.Snapshot, and resume every measurement run
// from the capture with copy-on-write memory sharing. Forked runs are
// bit-identical to cold runs — the equivalence is enforced by tests and
// a CI gate — so reuse is purely an execution optimisation, like the
// harness's worker count. Pool.Cold switches it off.

import (
	"container/list"
	"context"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/sim"
)

// Telemetry counter names for warm-state reuse. They are deliberately
// kept out of every per-run framework registry (which must stay
// bit-identical between cold and forked runs) and attached post hoc to
// exports and server telemetry.
const (
	SnapForksCounter   = "sim.snapshot.forks"
	SnapBytesCounter   = "sim.snapshot.bytes_copied"
	SnapWarmupsCounter = "sim.snapshot.warmups_reused"
)

// SnapshotStats tallies warm-state reuse across one experiment run.
// Safe for concurrent use; a nil *SnapshotStats is a valid no-op sink.
type SnapshotStats struct {
	mu            sync.Mutex
	forked        map[string]bool // families this run forked at least once
	forks         uint64
	warmupsReused uint64
	bytesCopied   uint64
	warmupSavedUS uint64 // microseconds of warm-up wall clock skipped
}

// addFork tallies one run resumed from the family under key. A run's
// first fork of each family stands for the warm-up the cold path
// runs; every later one reused it. The tallies therefore depend only
// on the run's own forks — never on whether the family came out of a
// cross-job cache — so a served job exports exactly the counters of
// the CLI run of the same spec.
func (s *SnapshotStats) addFork(key string, bytesCopied, warmupSavedUS uint64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.forks++
	s.bytesCopied += bytesCopied
	if s.forked[key] {
		s.warmupsReused++
		s.warmupSavedUS += warmupSavedUS
		return
	}
	if s.forked == nil {
		s.forked = make(map[string]bool)
	}
	s.forked[key] = true
}

// Provenance reduces the tallies to their exported form.
func (s *SnapshotStats) Provenance() SnapshotProvenance {
	if s == nil {
		return SnapshotProvenance{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return SnapshotProvenance{
		Families:      uint64(len(s.forked)),
		Forks:         s.forks,
		WarmupsReused: s.warmupsReused,
		BytesCopied:   s.bytesCopied,
		WarmupMSSaved: float64(s.warmupSavedUS) / 1000,
	}
}

// SnapshotProvenance is the exported warm-state-reuse record: how many
// family snapshots the run used, how many runs resumed from one, and what
// the reuse cost (copy-on-write bytes) and saved (warm-up wall clock).
type SnapshotProvenance struct {
	Families      uint64  `json:"families"`
	Forks         uint64  `json:"forks"`
	WarmupsReused uint64  `json:"warmups_reused"`
	BytesCopied   uint64  `json:"bytes_copied"`
	WarmupMSSaved float64 `json:"warmup_ms_saved"`
}

// Empty reports whether no reuse happened (cold run or degenerate
// experiment).
func (p SnapshotProvenance) Empty() bool {
	return p.Families == 0 && p.Forks == 0
}

// accumulate sums another record into this one (bench report totals).
func (p *SnapshotProvenance) accumulate(q SnapshotProvenance) {
	p.Families += q.Families
	p.Forks += q.Forks
	p.WarmupsReused += q.WarmupsReused
	p.BytesCopied += q.BytesCopied
	p.WarmupMSSaved += q.WarmupMSSaved
}

// AttachCounters adds the deterministic reuse tallies (counts and
// simulated bytes; never wall clock) to an export's counter map, so
// CLI -json documents and served jobs expose identical telemetry.
func (p SnapshotProvenance) AttachCounters(ex *sim.Export) {
	if ex == nil || p.Empty() {
		return
	}
	if ex.Counters == nil {
		ex.Counters = make(map[string]uint64, 3)
	}
	ex.Counters[SnapForksCounter] = p.Forks
	ex.Counters[SnapBytesCounter] = p.BytesCopied
	ex.Counters[SnapWarmupsCounter] = p.WarmupsReused
}

// AttachStats adds the same tallies to a stats registry (the serving
// layer merges per-job registries into its /metrics telemetry).
func (p SnapshotProvenance) AttachStats(stats *sim.Stats) {
	if stats == nil || p.Empty() {
		return
	}
	stats.Add(SnapForksCounter, p.Forks)
	stats.Add(SnapBytesCounter, p.BytesCopied)
	stats.Add(SnapWarmupsCounter, p.WarmupsReused)
}

// SnapshotCache is a bounded LRU of family snapshots keyed by a
// canonical family descriptor (experiment plus every knob that shapes
// the warm state — the same canonicalisation discipline as the job
// result cache's spec digest). Entries are immutable once built, so a
// cached family can be forked by any number of concurrent jobs; the
// bound exists only to cap memory. Safe for concurrent use.
type SnapshotCache struct {
	mu      sync.Mutex
	max     int
	ll      *list.List // front = most recently used
	entries map[string]*list.Element
	hits    atomic.Uint64
	misses  atomic.Uint64
}

type snapCacheEntry struct {
	key   string
	once  sync.Once
	value any
	err   error
}

// NewSnapshotCache builds a cache bounded to max families (max <= 0
// disables caching: every lookup builds).
func NewSnapshotCache(max int) *SnapshotCache {
	return &SnapshotCache{max: max, ll: list.New(), entries: make(map[string]*list.Element)}
}

// Hits and Misses report the cache's lifetime lookup tallies.
func (c *SnapshotCache) Hits() uint64   { return c.hits.Load() }
func (c *SnapshotCache) Misses() uint64 { return c.misses.Load() }

// Len reports the number of cached families.
func (c *SnapshotCache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// getOrBuild returns the family stored under key, building it at most
// once per residency (concurrent callers for the same key share one
// build). A nil cache or a non-positive bound degrades to a plain
// build. A failed build is not cached.
func (c *SnapshotCache) getOrBuild(key string, build func() (any, error)) (any, error) {
	if c == nil || c.max <= 0 {
		return build()
	}
	c.mu.Lock()
	el, ok := c.entries[key]
	if ok {
		c.ll.MoveToFront(el)
	} else {
		el = c.ll.PushFront(&snapCacheEntry{key: key})
		c.entries[key] = el
		for c.ll.Len() > c.max {
			oldest := c.ll.Back()
			c.ll.Remove(oldest)
			delete(c.entries, oldest.Value.(*snapCacheEntry).key)
		}
	}
	entry := el.Value.(*snapCacheEntry)
	c.mu.Unlock()

	built := false
	entry.once.Do(func() {
		built = true
		entry.value, entry.err = build()
	})
	if built {
		c.misses.Add(1)
	} else {
		c.hits.Add(1)
	}
	if entry.err != nil {
		// Do not let a transient failure poison the key: drop the entry
		// so the next lookup retries.
		c.mu.Lock()
		if cur, ok := c.entries[entry.key]; ok && cur == el {
			c.ll.Remove(el)
			delete(c.entries, entry.key)
		}
		c.mu.Unlock()
		return nil, entry.err
	}
	return entry.value, nil
}

// snapSpan opens one warm-state phase span ("fork.snapshot" around a
// capture, "fork.resume" around a fork's reconstruction) as a child of
// the context's active span. Nil-safe and free when tracing is off.
func snapSpan(ctx context.Context, name, family string) *obs.Span {
	_, span := obs.StartSpan(ctx, name)
	if span != nil {
		span.SetAttr("family", family)
	}
	return span
}
