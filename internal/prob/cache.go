package prob

// CacheStats is the counter set of the component memo cache Pr(φ)
// evaluation once kept.
//
// Deprecated: there is no component cache; every Pr(φ) run re-solves
// its components, so every field is always zero. The type remains only
// so that readers of core.Result.Cache and stream.Engine.CacheStats
// keep compiling.
type CacheStats struct {
	// Hits and Misses counted fingerprint lookups.
	Hits, Misses uint64
	// Evicted counted entries dropped by the size cap.
	Evicted uint64
	// Invalidated counted variables whose epoch was bumped.
	Invalidated uint64
	// InvalidatedEntries counted memoized entries dropped by invalidation.
	InvalidatedEntries uint64
}
