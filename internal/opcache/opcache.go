// Package opcache is a content-addressed cache of compiled operator
// artifacts: compiled kernels of any engine (each rebound to a shot's own
// storage through the kernel contract's Rebind), lowered schedules and
// autotuned execution configurations, keyed by a canonical hash of the symbolic schedule plus
// the grid / decomposition / engine / time-tile configuration (package
// core exports the key derivation as ScheduleKey).
//
// The cache exists for the shot-parallel FWI service: a survey runs
// thousands of RunGradient shots whose operators are compiled from the
// *same* equations against per-shot storage, so lowering and kernel
// compilation should happen once per equation set, not once per shot.
// GetOrCompute has singleflight semantics — concurrent shots that race on
// a cold key block on one compilation instead of duplicating it — which
// also keeps the compile count deterministic (exactly one per unique key)
// under any worker count.
//
// Values are stored as `any`: the cache is deliberately ignorant of the
// compiler's types so it sits below package core without an import cycle.
// Entries are never evicted; a cache is scoped to one service call (or one
// process) and its keyed artifacts are small compared to field storage.
package opcache

import (
	"fmt"
	"os"
	"strings"
	"sync"
	"sync/atomic"
)

// EnvVar gates the service-level cache: DEVIGO_OPCACHE=off|0 disables it,
// on|1 (or unset) keeps the default-on behavior of RunShots.
const EnvVar = "DEVIGO_OPCACHE"

// Stats is a point-in-time counter snapshot of a cache.
type Stats struct {
	// Hits counts GetOrCompute calls served from an existing entry
	// (including callers that blocked on an in-flight computation).
	Hits int64 `json:"hits"`
	// Misses counts GetOrCompute calls that ran the compute function —
	// one per unique key, thanks to singleflight.
	Misses int64 `json:"misses"`
	// Entries is the number of resident keys.
	Entries int `json:"entries"`
}

// HitRate is hits / (hits + misses), or 0 before any lookup.
func (s Stats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// entry is one keyed slot; ready is closed once val/err are final.
type entry struct {
	ready chan struct{}
	val   any
	err   error
}

// Cache is a concurrency-safe content-addressed store. The zero value is
// not usable; construct with New.
type Cache struct {
	mu      sync.Mutex
	entries map[string]*entry

	hits   atomic.Int64
	misses atomic.Int64
}

// New returns an empty cache.
func New() *Cache {
	return &Cache{entries: map[string]*entry{}}
}

// FromEnv consults DEVIGO_OPCACHE and returns a fresh cache when the
// variable enables it ("", "on", "1") or nil when it disables it ("off",
// "0"). A value outside the vocabulary is a configuration error naming
// the bad value, where it came from, and what is accepted.
func FromEnv() (*Cache, error) {
	v := strings.ToLower(strings.TrimSpace(os.Getenv(EnvVar)))
	switch v {
	case "", "on", "1":
		return New(), nil
	case "off", "0":
		return nil, nil
	}
	return nil, fmt.Errorf("opcache: unknown value %q in $%s (valid: on, off; aliases: 1, 0)", v, EnvVar)
}

// GetOrCompute returns the value stored under key, computing it with
// compute on first use. Concurrent callers of a cold key block until the
// single in-flight computation finishes (singleflight). hit reports
// whether the value came from the cache (true for blocked waiters too);
// the computing caller sees hit == false. A failed computation is not
// cached: its error is returned to every waiter and the key is cleared so
// a later call retries.
func (c *Cache) GetOrCompute(key string, compute func() (any, error)) (val any, hit bool, err error) {
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		c.mu.Unlock()
		<-e.ready
		if e.err != nil {
			return nil, false, e.err
		}
		c.hits.Add(1)
		return e.val, true, nil
	}
	e := &entry{ready: make(chan struct{})}
	c.entries[key] = e
	c.mu.Unlock()

	c.misses.Add(1)
	e.val, e.err = compute()
	if e.err != nil {
		c.mu.Lock()
		delete(c.entries, key)
		c.mu.Unlock()
	}
	close(e.ready)
	return e.val, false, e.err
}

// Get returns the completed value stored under key, if any. It never
// blocks: an in-flight computation reads as absent, and lookups through
// Get do not count toward the hit/miss statistics (GetOrCompute is the
// accounted path).
func (c *Cache) Get(key string) (any, bool) {
	c.mu.Lock()
	e, ok := c.entries[key]
	c.mu.Unlock()
	if !ok {
		return nil, false
	}
	select {
	case <-e.ready:
		if e.err != nil {
			return nil, false
		}
		return e.val, true
	default:
		return nil, false
	}
}

// Put stores val under key unconditionally, replacing any completed
// entry (an in-flight computation under the same key is left to finish
// and is then shadowed). It is the write path for artifacts discovered
// after compilation, like the autotuner's chosen configuration.
func (c *Cache) Put(key string, val any) {
	e := &entry{ready: make(chan struct{}), val: val}
	close(e.ready)
	c.mu.Lock()
	c.entries[key] = e
	c.mu.Unlock()
}

// Stats snapshots the cache counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	n := len(c.entries)
	c.mu.Unlock()
	return Stats{Hits: c.hits.Load(), Misses: c.misses.Load(), Entries: n}
}
