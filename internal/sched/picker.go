package sched

// Picker selects which replica serves a request. Implementations may keep
// state (round-robin's cursor); the gateway serializes calls on the
// simulation's strict handoff, so no internal locking is needed.
type Picker interface {
	// Pick chooses one of candidates for req and returns its index.
	// Candidates are the currently routable replicas (the caller has
	// already excluded unhealthy, draining, and just-failed ones); -1 is
	// returned only when the slice is empty.
	Pick(candidates []Candidate, req *Request) int
}

// RoundRobin cycles through the candidates in order — PR 1's default
// policy, extracted.
type RoundRobin struct {
	next int
}

// Pick implements Picker.
func (p *RoundRobin) Pick(candidates []Candidate, _ *Request) int {
	if len(candidates) == 0 {
		return -1
	}
	i := p.next % len(candidates)
	p.next++
	return i
}

// LeastLoaded routes to the replica with the smallest load score. Ties
// resolve on KV pressure from the replicas' telemetry snapshots — equal
// queue depths hide very different cache states on a continuous-batching
// engine, and the replica with more KV headroom absorbs the request
// without evicting reusable prefix blocks (or, worse, preempting). Equal
// pressure falls back to the earliest-registered candidate, PR 1's rule.
type LeastLoaded struct{}

// Pick implements Picker.
func (LeastLoaded) Pick(candidates []Candidate, _ *Request) int {
	return leastLoaded(candidates, -1)
}

// leastLoaded is LeastLoaded's scan over every candidate but the one at
// index skip.
func leastLoaded(candidates []Candidate, skip int) int {
	best := -1
	for i := range candidates {
		if i == skip {
			continue
		}
		c := &candidates[i]
		if best < 0 || c.Score < candidates[best].Score ||
			(c.Score == candidates[best].Score && c.Snap.KVPressure() < candidates[best].Snap.KVPressure()) {
			best = i
		}
	}
	return best
}

// DefaultSpillDepth is the affine replica's load score (Score: in-flight
// plus scraped queue depths — the saturation measure that still works when
// a continuous-batching engine absorbs every request into its running
// batch) above which a session spills. It matches the autoscaler's default
// per-replica queue target: a replica holding a full target queue gains
// nothing from more cache-affine load.
const DefaultSpillDepth = 8

// DefaultKVSpillPressure is the affine replica's KV pressure (fraction of
// blocks held by live sequences, reclaimable cache excluded) at or above
// which a session spills even with a short queue: past this point the
// engine is about to evict the very prefix blocks the session came back
// for — or preempt — so the cache hit the affinity was buying no longer
// exists. Replicas that have never reported telemetry read as zero
// pressure.
const DefaultKVSpillPressure = 0.9

// maxStickySpills bounds the sticky-spill memory; past it the map resets
// wholesale (the sessions simply re-pick their spill target once).
const maxStickySpills = 1024

// Session routes every request sharing a session key to the same replica
// so multi-turn conversations reuse that replica's warm prefix/KV cache.
// The mapping is rendezvous (highest-random-weight) hashing — a
// consistent-hashing scheme: adding or removing a replica only remaps the
// sessions that hashed to it, and the mapping is independent of candidate
// order. Keyless requests fall back to least-loaded, and a session whose
// affine replica is saturated spills to the least-loaded other replica (a
// cache hit is not worth queueing behind a saturated engine).
type Session struct {
	spills int
	// spillTo pins each spilled session to its chosen fallback (sticky
	// spill): repeated turns of one session land on the same replica, so
	// the spill target accumulates the session's prefix instead of the
	// conversation scattering across the fleet re-picking least-loaded
	// every turn. Entries clear when the session returns home.
	spillTo map[string]string
}

// Spills counts picks that left the affine replica due to saturation.
func (s *Session) Spills() int { return s.spills }

// saturated reports whether c is past DefaultSpillDepth or
// DefaultKVSpillPressure.
func saturated(c *Candidate) bool {
	return c.Score > DefaultSpillDepth || c.Snap.KVPressure() >= DefaultKVSpillPressure
}

// Pick implements Picker.
func (s *Session) Pick(candidates []Candidate, req *Request) int {
	if len(candidates) == 0 {
		return -1
	}
	if req == nil || req.SessionKey == "" {
		return leastLoaded(candidates, -1)
	}
	affine := Affine(candidates, req.SessionKey)
	if len(candidates) > 1 && saturated(&candidates[affine]) {
		s.spills++
		req.Spilled = true
		// Sticky spill: reuse the session's recorded fallback while it is
		// still routable and healthy enough itself.
		if key, ok := s.spillTo[req.SessionKey]; ok {
			for i := range candidates {
				if i != affine && candidates[i].Key == key && !saturated(&candidates[i]) {
					return i
				}
			}
		}
		pick := leastLoaded(candidates, affine)
		s.remember(req.SessionKey, candidates[pick].Key)
		return pick
	}
	// Home again: drop any sticky record so a later spill re-picks
	// against current load. delete on a nil map is a no-op, keeping the
	// non-spill path allocation-free.
	delete(s.spillTo, req.SessionKey)
	return affine
}

// remember records a session's spill target.
func (s *Session) remember(session, target string) {
	if s.spillTo == nil {
		s.spillTo = make(map[string]string)
	} else if len(s.spillTo) >= maxStickySpills {
		clear(s.spillTo)
	}
	s.spillTo[session] = target
}

// Prefix is the cache-aware placement policy: it consults each replica's
// published prefix-membership sketch (telemetry Snapshot.PrefixSketch)
// for the request's leading block key. The session's affine replica wins
// whenever its sketch holds the key — it has the conversation's deepest
// chain, not just the shared head block. Otherwise the request lands on
// the least-loaded unsaturated replica whose sketch matches (windowed
// hit rate breaks score ties), which is how *new* conversations reach the
// replica where their system prompt is already resident instead of being
// placed blindly by the rendezvous hash. With no key or no match it
// degrades to exactly the Session policy (affinity, sticky spill,
// least-loaded fallback).
type Prefix struct {
	Session
	sketchRoutes int
}

// SketchRoutes counts picks placed by sketch membership rather than
// affinity or load.
func (p *Prefix) SketchRoutes() int { return p.sketchRoutes }

// Pick implements Picker.
func (p *Prefix) Pick(candidates []Candidate, req *Request) int {
	if len(candidates) == 0 {
		return -1
	}
	if req == nil || req.PrefixKey == 0 {
		return p.Session.Pick(candidates, req)
	}
	affine := -1
	if req.SessionKey != "" {
		affine = Affine(candidates, req.SessionKey)
	}
	if affine >= 0 && !saturated(&candidates[affine]) && candidates[affine].Snap.SketchContains(req.PrefixKey) {
		delete(p.spillTo, req.SessionKey)
		return affine
	}
	best := -1
	for i := range candidates {
		c := &candidates[i]
		if i == affine || saturated(c) || !c.Snap.SketchContains(req.PrefixKey) {
			continue
		}
		if best < 0 || c.Score < candidates[best].Score ||
			(c.Score == candidates[best].Score &&
				c.Snap.WindowPrefixHitRate() > candidates[best].Snap.WindowPrefixHitRate()) {
			best = i
		}
	}
	if best >= 0 {
		p.sketchRoutes++
		if affine >= 0 {
			// A session placed off its affine replica still needs its
			// deeper history there; surface it so the gateway can warm up.
			req.Spilled = true
			p.remember(req.SessionKey, candidates[best].Key)
		}
		return best
	}
	return p.Session.Pick(candidates, req)
}

// Affine returns the index of the rendezvous-hash owner of a session key
// among the candidates — the candidate whose (key, backend) hash is
// highest — or -1 when there are none. Exposed so the gateway's drain
// warm-up and tests can predict the mapping.
func Affine(candidates []Candidate, sessionKey string) int {
	best := -1
	var bestHash uint64
	for i := range candidates {
		h := rendezvous(sessionKey, candidates[i].Key)
		if best < 0 || h > bestHash || (h == bestHash && candidates[i].Key < candidates[best].Key) {
			best, bestHash = i, h
		}
	}
	return best
}

// rendezvous is FNV-1a over sessionKey \x00 backendKey: cheap, stateless,
// and stable across candidate reorderings.
func rendezvous(sessionKey, backendKey string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(sessionKey); i++ {
		h ^= uint64(sessionKey[i])
		h *= prime64
	}
	// Separator round so ("ab","c") and ("a","bc") hash differently.
	h *= prime64
	for i := 0; i < len(backendKey); i++ {
		h ^= uint64(backendKey[i])
		h *= prime64
	}
	return h
}
