package auditnet

import (
	"crypto/sha256"
	"fmt"
	"sort"
	"sync"

	"pvr/internal/aspath"
	"pvr/internal/gossip"
	"pvr/internal/merkle"
	"pvr/internal/obs"
	"pvr/internal/sigs"
)

// Store is one node's epoch-indexed view of gossiped statements plus the
// equivocation evidence it has confirmed. Statements are grouped by
// (origin, epoch); each group carries a Merkle digest over its sorted
// statement content hashes, the unit of anti-entropy comparison. Safe for
// concurrent use.
//
// A topic for which a conflict is known is *poisoned*: its statement is
// removed from the group (the evidence record preserves both versions) and
// further statements for it are ignored. Poisoning is what lets two nodes
// that received different sides of an equivocation converge to identical
// digests once the conflict itself has propagated — otherwise the
// irreconcilable topic would be re-shipped on every round forever.
type Store struct {
	reg sigs.Verifier

	mu         sync.RWMutex
	groups     map[GroupKey]*group
	poisoned   map[string]struct{}       // origin/topic keys with known conflicts
	epochOf    map[string]uint64         // origin/topic -> filing epoch (one per topic)
	confl      map[Hash]*gossip.Conflict // by ConflictKey
	conflTrace map[Hash]obs.TraceContext // trace metadata per conflict (sparse)
	conflLog   []Hash                    // insertion order, for deterministic export
	records    int
	lastTrace  obs.TraceContext // most recently ingested non-zero record trace
}

type group struct {
	byTopic map[string]*storedStatement
	digest  Hash
	dirty   bool
}

type storedStatement struct {
	s     gossip.Statement
	hash  Hash
	trace obs.TraceContext
}

// NewStore builds an empty store verifying statements against reg.
func NewStore(reg sigs.Verifier) *Store {
	return &Store{
		reg:        reg,
		groups:     make(map[GroupKey]*group),
		poisoned:   make(map[string]struct{}),
		epochOf:    make(map[string]uint64),
		confl:      make(map[Hash]*gossip.Conflict),
		conflTrace: make(map[Hash]obs.TraceContext),
	}
}

func topicKey(origin aspath.ASN, topic string) string {
	return fmt.Sprintf("%d\x00%s", uint32(origin), topic)
}

// AddRecord verifies and ingests one statement record. It returns
// added=true when the statement was new and stored; a non-nil conflict
// when this statement contradicts a stored one (the statement is then
// quarantined as evidence, not stored); and an error when the signature
// does not verify or the origin is unknown.
func (st *Store) AddRecord(rec Record) (added bool, conflict *gossip.Conflict, err error) {
	if err := rec.S.Verify(st.reg); err != nil {
		return false, nil, fmt.Errorf("auditnet: reject statement from %s: %w", rec.S.Origin, err)
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	tk := topicKey(rec.S.Origin, rec.S.Topic)
	if _, bad := st.poisoned[tk]; bad {
		return false, nil, nil
	}
	// A topic files under exactly one epoch (first seen wins). The filing
	// epoch is reconciliation metadata a relaying peer could alter: without
	// this bind, one validly signed statement could be re-filed under
	// arbitrary epochs, inflating every store with duplicate groups.
	if e0, bound := st.epochOf[tk]; bound && e0 != rec.Epoch {
		return false, nil, nil
	}
	gk := GroupKey{Origin: rec.S.Origin, Epoch: rec.Epoch}
	g := st.groups[gk]
	if g == nil {
		g = &group{byTopic: make(map[string]*storedStatement), dirty: true}
		st.groups[gk] = g
	}
	prev, seen := g.byTopic[rec.S.Topic]
	if !seen {
		g.byTopic[rec.S.Topic] = &storedStatement{s: rec.S, hash: ContentHash(&rec.S), trace: rec.Trace}
		g.dirty = true
		st.epochOf[tk] = rec.Epoch
		st.records++
		if !rec.Trace.IsZero() {
			st.lastTrace = rec.Trace
		}
		return true, nil, nil
	}
	if prev.s.Equal(&rec.S) {
		// A duplicate can still carry trace metadata the first copy lacked.
		if prev.trace.IsZero() && !rec.Trace.IsZero() {
			prev.trace = rec.Trace
		}
		return false, nil, nil
	}
	return false, &gossip.Conflict{Origin: rec.S.Origin, Topic: rec.S.Topic, A: prev.s, B: rec.S}, nil
}

// TraceOf returns the trace context of the stored statement for (origin,
// epoch, topic), zero when unknown or untraced.
func (st *Store) TraceOf(origin aspath.ASN, epoch uint64, topic string) obs.TraceContext {
	st.mu.RLock()
	defer st.mu.RUnlock()
	if g := st.groups[GroupKey{Origin: origin, Epoch: epoch}]; g != nil {
		if s := g.byTopic[topic]; s != nil {
			return s.trace
		}
	}
	return obs.TraceContext{}
}

// LastTrace returns the most recently ingested non-zero record trace.
func (st *Store) LastTrace() obs.TraceContext {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.lastTrace
}

// HasConflict reports whether the evidence for this key is already stored.
func (st *Store) HasConflict(key Hash) bool {
	st.mu.RLock()
	defer st.mu.RUnlock()
	_, ok := st.confl[key]
	return ok
}

// AddConflict stores verified equivocation evidence and poisons its topic,
// removing the stored statement (the conflict record itself preserves both
// versions). The caller verifies the conflict first. Returns false when
// the evidence was already known. tc is the distributed trace context the
// evidence travels under; a zero tc falls back to the trace of the stored
// statement the conflict displaces, so a locally detected equivocation
// stitches to the announcement that triggered it.
func (st *Store) AddConflict(c *gossip.Conflict, tc obs.TraceContext) bool {
	key := ConflictKey(c)
	st.mu.Lock()
	defer st.mu.Unlock()
	if _, dup := st.confl[key]; dup {
		return false
	}
	if tc.IsZero() {
		if g := st.groups[GroupKey{Origin: c.Origin, Epoch: topicEpoch(st, c)}]; g != nil {
			if s := g.byTopic[c.Topic]; s != nil {
				tc = s.trace
			}
		}
	}
	if !tc.IsZero() {
		st.conflTrace[key] = tc
	}
	st.confl[key] = c
	st.conflLog = append(st.conflLog, key)
	tk := topicKey(c.Origin, c.Topic)
	if _, already := st.poisoned[tk]; !already {
		st.poisoned[tk] = struct{}{}
		// Drop the quarantined topic from every epoch group it appears in.
		for k, g := range st.groups {
			if k.Origin != c.Origin {
				continue
			}
			if _, ok := g.byTopic[c.Topic]; ok {
				delete(g.byTopic, c.Topic)
				g.dirty = true
				st.records--
			}
		}
	}
	return true
}

// topicEpoch resolves the filing epoch of the conflict's topic (caller
// holds st.mu); zero when the topic was never stored.
func topicEpoch(st *Store, c *gossip.Conflict) uint64 {
	return st.epochOf[topicKey(c.Origin, c.Topic)]
}

// ConflictTrace returns the trace context stored alongside the evidence
// for key (zero when untraced or unknown).
func (st *Store) ConflictTrace(key Hash) obs.TraceContext {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.conflTrace[key]
}

// Records returns the number of stored statements.
func (st *Store) Records() int {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.records
}

// ConflictCount returns the number of stored evidence records.
func (st *Store) ConflictCount() int {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return len(st.confl)
}

// Conflicts returns the stored evidence in insertion order.
func (st *Store) Conflicts() []*gossip.Conflict {
	st.mu.RLock()
	defer st.mu.RUnlock()
	out := make([]*gossip.Conflict, 0, len(st.conflLog))
	for _, k := range st.conflLog {
		out = append(out, st.confl[k])
	}
	return out
}

// groupDigestLocked returns the group's Merkle digest, recomputing the
// cached value when dirty: the root of a merkle.Batch over the group's
// sorted statement content hashes.
func (st *Store) groupDigestLocked(g *group) Hash {
	if !g.dirty {
		return g.digest
	}
	hashes := make([][]byte, 0, len(g.byTopic))
	for _, s := range g.byTopic {
		h := s.hash
		hashes = append(hashes, h[:])
	}
	sort.Slice(hashes, func(i, j int) bool { return string(hashes[i]) < string(hashes[j]) })
	if len(hashes) == 0 {
		g.digest = Hash{}
	} else {
		b, err := merkle.NewBatch(hashes)
		if err != nil { // unreachable: hashes is non-empty
			panic(err)
		}
		g.digest = Hash(b.Root())
	}
	g.dirty = false
	return g.digest
}

// Summary returns the store's top-level reconciliation digest.
func (st *Store) Summary() *summaryMsg {
	st.mu.Lock()
	defer st.mu.Unlock()
	gds := st.groupDigestsLocked(nil)
	h := sha256.New()
	h.Write([]byte("pvr/auditnet/summary/v1"))
	for _, gd := range gds {
		writeGroupKey(h, gd.Key)
		h.Write(gd.Digest[:])
	}
	var m summaryMsg
	h.Sum(m.Store[:0])
	m.Groups = uint32(len(gds))
	keys := st.conflictKeysLocked()
	ch := sha256.New()
	ch.Write([]byte("pvr/auditnet/confl-summary/v1"))
	for _, k := range keys {
		ch.Write(k[:])
	}
	ch.Sum(m.Conflicts[:0])
	m.NConfl = uint32(len(keys))
	m.Trace = st.lastTrace
	return &m
}

func writeGroupKey(h interface{ Write([]byte) (int, error) }, k GroupKey) {
	var b [12]byte
	b[0] = byte(k.Origin >> 24)
	b[1] = byte(k.Origin >> 16)
	b[2] = byte(k.Origin >> 8)
	b[3] = byte(k.Origin)
	for i := 0; i < 8; i++ {
		b[4+i] = byte(k.Epoch >> (56 - 8*i))
	}
	h.Write(b[:])
}

// OriginDigests returns the per-origin digest level, sorted by origin, and
// the sorted conflict key set.
func (st *Store) OriginDigests() *originsMsg {
	st.mu.Lock()
	defer st.mu.Unlock()
	gds := st.groupDigestsLocked(nil)
	byOrigin := make(map[aspath.ASN][]GroupDigest)
	for _, gd := range gds {
		byOrigin[gd.Key.Origin] = append(byOrigin[gd.Key.Origin], gd)
	}
	origins := make([]aspath.ASN, 0, len(byOrigin))
	for o := range byOrigin {
		origins = append(origins, o)
	}
	sort.Slice(origins, func(i, j int) bool { return origins[i] < origins[j] })
	m := &originsMsg{Origins: make([]OriginDigest, 0, len(origins))}
	for _, o := range origins {
		gs := byOrigin[o] // already sorted by epoch via groupDigestsLocked
		h := sha256.New()
		h.Write([]byte("pvr/auditnet/origin/v1"))
		for _, gd := range gs {
			writeGroupKey(h, gd.Key)
			h.Write(gd.Digest[:])
		}
		var od OriginDigest
		od.Origin = o
		h.Sum(od.Digest[:0])
		od.Groups = uint32(len(gs))
		m.Origins = append(m.Origins, od)
	}
	m.ConflictKeys = st.conflictKeysLocked()
	return m
}

// GroupDigests returns the (origin, epoch) digest level for the given
// origins (all origins when nil), sorted by origin then epoch.
func (st *Store) GroupDigests(origins []aspath.ASN) *groupsMsg {
	st.mu.Lock()
	defer st.mu.Unlock()
	var filter map[aspath.ASN]struct{}
	if origins != nil {
		filter = make(map[aspath.ASN]struct{}, len(origins))
		for _, o := range origins {
			filter[o] = struct{}{}
		}
	}
	return &groupsMsg{Groups: st.groupDigestsLocked(filter)}
}

func (st *Store) groupDigestsLocked(filter map[aspath.ASN]struct{}) []GroupDigest {
	out := make([]GroupDigest, 0, len(st.groups))
	for k, g := range st.groups {
		if filter != nil {
			if _, ok := filter[k.Origin]; !ok {
				continue
			}
		}
		if len(g.byTopic) == 0 {
			continue
		}
		out = append(out, GroupDigest{Key: k, Digest: st.groupDigestLocked(g), Count: uint32(len(g.byTopic))})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Key.Origin != out[j].Key.Origin {
			return out[i].Key.Origin < out[j].Key.Origin
		}
		return out[i].Key.Epoch < out[j].Key.Epoch
	})
	return out
}

func (st *Store) conflictKeysLocked() []Hash {
	keys := make([]Hash, 0, len(st.confl))
	for k := range st.confl {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return string(keys[i][:]) < string(keys[j][:]) })
	return keys
}

// diffOrigins returns the origins in mine whose digest differs from (or
// is missing in) peer: the origins whose group digests must be sent for
// the peer to reconcile. Pure function — the exchange passes the digest
// set it already computed rather than re-scanning the store.
func diffOrigins(mine, peer []OriginDigest) []aspath.ASN {
	theirs := make(map[aspath.ASN]Hash, len(peer))
	for _, od := range peer {
		theirs[od.Origin] = od.Digest
	}
	var out []aspath.ASN
	for _, od := range mine {
		if d, ok := theirs[od.Origin]; !ok || d != od.Digest {
			out = append(out, od.Origin)
		}
	}
	return out
}

// Reconciliation frames must stay under netx.MaxFrame (4 MiB). Rather
// than chunking the protocol, both the want list and the statement
// response are cut off at a byte budget: anti-entropy is incremental by
// design, so a node missing more than a budget's worth simply converges
// over several rounds instead of failing to sync at all.
const frameBudget = 1 << 20 // 1 MiB

// Wants compares the peer's group digests against local state and returns
// the groups to request, each with the content hashes already held so the
// peer ships only the difference. The list is budget-bounded; groups cut
// off here are re-requested on a later round.
func (st *Store) Wants(peer []GroupDigest) []GroupWant {
	st.mu.Lock()
	defer st.mu.Unlock()
	var out []GroupWant
	bytes := 0
	for _, gd := range peer {
		g := st.groups[gd.Key]
		if g != nil && len(g.byTopic) > 0 && st.groupDigestLocked(g) == gd.Digest {
			continue
		}
		w := GroupWant{Key: gd.Key}
		if g != nil {
			w.Have = make([]Hash, 0, len(g.byTopic))
			for _, s := range g.byTopic {
				w.Have = append(w.Have, s.hash)
			}
			sort.Slice(w.Have, func(i, j int) bool { return string(w.Have[i][:]) < string(w.Have[j][:]) })
		}
		bytes += 16 + sha256.Size*len(w.Have)
		if len(out) > 0 && bytes > frameBudget {
			break
		}
		out = append(out, w)
	}
	return out
}

// MissingConflictKeys returns the peer's conflict keys not yet stored.
func (st *Store) MissingConflictKeys(peer []Hash) []Hash {
	st.mu.RLock()
	defer st.mu.RUnlock()
	var out []Hash
	for _, k := range peer {
		if _, ok := st.confl[k]; !ok {
			out = append(out, k)
		}
	}
	return out
}

// Serve answers a want list: for each requested group this store has, the
// records whose content hash the asker does not hold, in deterministic
// (topic) order. The response is budget-bounded (at least one record is
// always served); the remainder ships on later rounds.
func (st *Store) Serve(wants []GroupWant) []Record {
	st.mu.RLock()
	defer st.mu.RUnlock()
	var out []Record
	bytes := 0
	for _, w := range wants {
		g := st.groups[w.Key]
		if g == nil {
			continue
		}
		have := make(map[Hash]struct{}, len(w.Have))
		for _, h := range w.Have {
			have[h] = struct{}{}
		}
		topics := make([]string, 0, len(g.byTopic))
		for t := range g.byTopic {
			topics = append(topics, t)
		}
		sort.Strings(topics)
		for _, t := range topics {
			s := g.byTopic[t]
			if _, dup := have[s.hash]; dup {
				continue
			}
			bytes += 8 + 4 + 12 + len(s.s.Topic) + len(s.s.Payload) + len(s.s.Sig)
			if len(out) > 0 && bytes > frameBudget {
				return out
			}
			out = append(out, Record{Epoch: w.Key.Epoch, S: s.s, Trace: s.trace})
		}
	}
	return out
}

// ServeConflicts answers conflict-key wants from the stored evidence, with
// the parallel trace contexts stored alongside it (zero entries where
// untraced).
func (st *Store) ServeConflicts(keys []Hash) ([]*gossip.Conflict, []obs.TraceContext) {
	st.mu.RLock()
	defer st.mu.RUnlock()
	var out []*gossip.Conflict
	var traces []obs.TraceContext
	for _, k := range keys {
		if c, ok := st.confl[k]; ok {
			out = append(out, c)
			traces = append(traces, st.conflTrace[k])
		}
	}
	return out, traces
}
