package discplane

import (
	"pvr/internal/obs"
)

// discMetrics are the query plane's server-side instruments. Handles stay
// live without a registry, so the serve path never branches on observability.
type discMetrics struct {
	queries *obs.Counter   // DISCLOSE frames decoded (well- or ill-formed)
	served  *obs.Counter   // VIEW responses sent
	denied  *obs.Counter   // DENY responses sent
	latAll  *obs.Histogram // decode→answer latency, all roles
	latRole [4]*obs.Histogram
	hits    *obs.Counter // response-cache hits
	misses  *obs.Counter // response-cache misses (view built fresh)
	evicted *obs.Counter // cached views dropped at window transitions
	// rejected counts frames the listener guard refused, by reason.
	rejected [len(rejectReasons)]*obs.Counter
}

// Reasons the listener guard refuses a frame, the label values of
// pvr_disc_rejected_total.
const (
	rejectFrameType = iota
	rejectOversize
	rejectUndecodable
)

var rejectReasons = [...]string{
	rejectFrameType:   "frame_type",
	rejectOversize:    "oversize",
	rejectUndecodable: "undecodable",
}

func newDiscMetrics(r *obs.Registry) *discMetrics {
	m := &discMetrics{
		queries: obs.NewCounter(r, "pvr_disc_queries_total", "DISCLOSE queries received"),
		served:  obs.NewCounter(r, "pvr_disc_served_total", "views granted"),
		denied:  obs.NewCounter(r, "pvr_disc_denied_total", "queries denied (α, not-found, malformed)"),
		latAll:  obs.NewHistogram(r, "pvr_disc_latency_seconds", "query answer latency, all roles", nil),
		hits:    obs.NewCounter(r, "pvr_disc_cache_hits_total", "response-cache hits"),
		misses:  obs.NewCounter(r, "pvr_disc_cache_misses_total", "response-cache misses"),
		evicted: obs.NewCounter(r, "pvr_disc_cache_evictions_total", "cached views dropped at window transitions"),
	}
	for i, reason := range rejectReasons {
		m.rejected[i] = obs.NewCounter(r,
			`pvr_disc_rejected_total{reason="`+reason+`"}`,
			"frames refused by the listener guard before any signature, ring or engine work")
	}
	for i, role := range []Role{RoleObserver, RoleProvider, RolePromisee, RoleAuditor} {
		m.latRole[i] = obs.NewHistogram(r,
			`pvr_disc_role_latency_seconds{role="`+role.String()+`"}`,
			"query answer latency by requester role", nil)
	}
	return m
}

// roleLat returns the per-role latency histogram, or the all-roles one for
// a role outside the valid range (an undecodable or invalid-role query).
func (m *discMetrics) roleLat(role Role) *obs.Histogram {
	if i := int(role) - int(RoleObserver); i >= 0 && i < len(m.latRole) {
		return m.latRole[i]
	}
	return m.latAll
}

// registerGauges exports the server's live cache size; called once from
// NewServer when a registry is configured.
func (s *Server) registerGauges(r *obs.Registry) {
	obs.NewGaugeFunc(r, "pvr_disc_cache_entries", "response-cache entries for the current window", func() float64 {
		n := 0
		s.cache.Range(func(_, _ any) bool { n++; return true })
		return float64(n)
	})
}

// CacheStats is a point-in-time read of the response cache's accounting.
type CacheStats struct {
	Hits      uint64 // repeat queries answered from the cache
	Misses    uint64 // views built (and cached) fresh
	Evictions uint64 // cached views dropped at window transitions
}

// CacheStats returns the response cache's hit/miss/eviction counts since
// the server was built.
func (s *Server) CacheStats() CacheStats {
	return CacheStats{
		Hits:      uint64(s.met.hits.Value()),
		Misses:    uint64(s.met.misses.Value()),
		Evictions: uint64(s.met.evicted.Value()),
	}
}
