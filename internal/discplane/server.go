package discplane

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"pvr/internal/aspath"
	"pvr/internal/engine"
	"pvr/internal/netx"
	"pvr/internal/obs"
	"pvr/internal/privplane"
	"pvr/internal/sigs"
)

// FrameConn is the transport a query exchange runs over: netx.Conn (TCP)
// and any pvr.Transport connection satisfy it. The protocol is a strict
// one-query/one-answer ping-pong, so unbuffered rendezvous pipes work.
type FrameConn interface {
	Send(netx.Frame) error
	Recv() (netx.Frame, error)
}

// Config parameterizes a Server.
type Config struct {
	// ASN is the serving prover (network A). Required.
	ASN aspath.ASN
	// Engine is the sealed state the server answers from. Required.
	Engine *engine.ProverEngine
	// Registry authenticates requesters: provider and promisee queries
	// are granted only to principals whose signature verifies. Required.
	Registry sigs.Verifier
	// IsPromisee is the promisee half of α: which ASNs the prover's
	// promise was made to. Nil means no promisee view is ever granted.
	// Must be safe for concurrent use.
	IsPromisee func(aspath.ASN) bool
	// Key, when set, is the prover's marshaled public key, included in
	// every view so trust-on-first-use clients can verify before pinning.
	Key []byte
	// Priv, when set, enables the privacy plane: anonymous ring-signed
	// provider queries (FrameDiscloseAnon) and zero-knowledge auditor
	// views (RoleAuditor). Nil denies both.
	Priv *privplane.Plane
	// Logf receives denial and serve log lines (default: discard).
	Logf func(format string, args ...any)
	// Obs, when non-nil, exports the server's metric families (query and
	// denial counts, per-role answer latency, response-cache accounting)
	// into the given registry.
	Obs *obs.Registry
	// Tracer, when non-nil, receives a DisclosureServed event per granted
	// view.
	Tracer *obs.Tracer
	// NonceFloor, when nonzero, is the recovered anti-replay floor: a
	// gated query whose nonce stamp (NonceStamp) is at or below it is
	// denied. A restarting prover sets this to the stamp high-water mark
	// it durably recorded before going down, which is what stops captured
	// pre-crash queries from replaying into the empty in-memory seen-set.
	// Fixed at the recovered value rather than live so querier clock skew
	// and in-flight reordering cannot deny legitimate concurrent queries.
	NonceFloor uint64
	// OnNonce, when set, observes the stamp of every accepted gated
	// query, for the owner to persist as the next NonceFloor. Called on
	// the serve path; implementations should not block (an async WAL
	// append is the intended use).
	OnNonce func(stamp uint64)
}

// Server answers DISCLOSE queries from the engine's sealed state,
// enforcing α per requesting ASN. Responses are cached per
// (role, requester, prefix, epoch, window), so repeated queries for one
// commitment window cost an encode-free map hit instead of re-opening
// commitments and re-signing export statements. Safe for concurrent use.
type Server struct {
	cfg Config
	met *discMetrics
	tr  *obs.Tracer

	// cache maps a view key to its encoded VIEW payload. Keys embed the
	// engine window, so a re-seal naturally invalidates by changing keys;
	// stale windows are dropped wholesale at window transitions.
	cache  sync.Map
	cacheW atomic.Uint64

	// nonces remembers recently seen gated-query nonces so a captured
	// signed DISCLOSE cannot be replayed to pull fresher views as windows
	// advance. Best-effort by design: the set holds the last two
	// generations of nonceGeneration entries each, so only a query older
	// than ~2·nonceGeneration gated queries could replay — and the
	// Prover binding still stops it from being replayed elsewhere.
	nonces nonceSet
}

// nonceGeneration bounds one generation of the replay-defense nonce set.
const nonceGeneration = 1 << 15

// nonceKey is a nonce folded to 56 bits, random half onto stamp half
// (less the stamp's top byte, which the wall clock changes every few
// years). A replay folds to the key its original left, so folding never
// lets one through; it can only refuse a fresh nonce that collides with
// a remembered one, and the random half makes that a 2⁻⁵⁶ event per
// remembered entry that nobody can aim at a nonce they have not seen.
// Seven bytes because a map slot holding them takes eight, half of what
// a slot for eight takes.
type nonceKey [7]byte

// nonceSet remembers two generations: the current one in a map, grown on
// demand (on a session only the first query carries a nonce, so it is
// rarely anywhere near full), the one before it sorted in a slice, a
// third of the map's size.
type nonceSet struct {
	mu   sync.Mutex
	cur  map[nonceKey]struct{}
	prev []nonceKey
}

func (a nonceKey) compare(b nonceKey) int { return bytes.Compare(a[:], b[:]) }

// seen records nonce and reports whether it was already present.
func (s *nonceSet) seen(nonce [NonceSize]byte) bool {
	var n nonceKey
	for i := range n {
		n[i] = nonce[1+i] ^ nonce[9+i]
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.cur[n]; ok {
		return true
	}
	if _, ok := slices.BinarySearchFunc(s.prev, n, nonceKey.compare); ok {
		return true
	}
	if s.cur == nil {
		s.cur = make(map[nonceKey]struct{})
	}
	s.cur[n] = struct{}{}
	if len(s.cur) >= nonceGeneration {
		s.prev = s.prev[:0]
		for k := range s.cur {
			s.prev = append(s.prev, k)
		}
		slices.SortFunc(s.prev, nonceKey.compare)
		s.cur = nil
	}
	return false
}

// NewServer validates the config and builds a server.
func NewServer(cfg Config) (*Server, error) {
	if cfg.Engine == nil || cfg.Registry == nil {
		return nil, fmt.Errorf("discplane: Engine and Registry are required")
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	s := &Server{cfg: cfg, met: newDiscMetrics(cfg.Obs), tr: cfg.Tracer}
	if cfg.Obs != nil {
		s.registerGauges(cfg.Obs)
	}
	return s, nil
}

// Served counts granted views; Denied counts α and not-found denials.
func (s *Server) Served() uint64 { return uint64(s.met.served.Value()) }

// Denied counts denials sent.
func (s *Server) Denied() uint64 { return uint64(s.met.denied.Value()) }

// Payload bounds of the two query frames, enforced before decoding. A
// Query is a few fixed fields, one signature and trailing extensions; an
// AnonQuery also carries a ring of at most maxWireRing members and one
// ring-signature component per member.
const (
	maxQueryPayload     = 4 << 10
	maxAnonQueryPayload = 128 << 10
)

// session is what a serve loop remembers about its connection.
type session struct {
	// bound is the principal a signed gated query has bound the
	// connection to (0: none yet).
	bound aspath.ASN
	// refused is set when a signed gated query failed authentication.
	refused bool
}

// errUnauthenticated ends a session whose peer presented a signed query
// that did not authenticate.
var errUnauthenticated = errors.New("discplane: signed query failed authentication; session ended")

// Serve answers queries on the connection, one exchange after another,
// until the peer hangs up, the listener guard refuses a frame, or ctx
// ends — which closes the connection (if it exposes Close) so the blocked
// frame read returns. The caller closes the connection afterwards.
//
// The connection is a session. The first gated query on it is signed and
// checked like any other: signature, recovered nonce floor, nonce set.
// Passing binds the connection to that Requester, and later gated queries
// naming the bound principal may travel with an empty Sig: they are
// served with no signature check, no nonce-set insert and no OnNonce
// call. An unsigned gated query on an unbound connection, or naming
// anyone else, is denied with the DenyAccess an unauthenticated query has
// always got; a signed one is verified as ever and rebinds. Only a query
// addressed to this prover binds: an unaddressed one (Prover 0) could be
// a frame captured at another prover, good for the one view it names and
// no more.
//
// A signed gated query that fails authentication — wrong addressee, bad
// signature, stale or replayed nonce — is answered with its denial and
// ends the session. Whoever keeps the connection can then take any
// DenyAccess to a signed query as "authenticated, but α refuses": either
// that is so and the connection is bound, or the connection is gone and
// the next query on it is signed again on a fresh one.
func (s *Server) Serve(ctx context.Context, c FrameConn) error {
	if closer, ok := c.(interface{ Close() error }); ok && ctx.Done() != nil {
		stop := context.AfterFunc(ctx, func() { _ = closer.Close() })
		defer stop()
	}
	var sess session
	for {
		if err := s.exchange(c, &sess); err != nil {
			if cerr := ctx.Err(); cerr != nil {
				return cerr
			}
			return err
		}
		if sess.refused {
			return errUnauthenticated
		}
	}
}

// Respond handles exactly one query on the connection: receive DISCLOSE,
// answer VIEW or DENY. It is Serve for a session of length one — nothing
// is remembered between calls, so every gated query must be signed. A
// transport or framing error is returned (the caller should close the
// connection); a denial is a successful exchange and returns nil.
func (s *Server) Respond(c FrameConn) error {
	return s.exchange(c, new(session))
}

// exchange runs one query/answer on a session. The listener guard comes
// first: an unknown frame type, an oversize payload or an undecodable
// query is refused and counted before any signature, ring or engine work,
// and the returned error ends the session.
func (s *Server) exchange(c FrameConn, sess *session) error {
	f, err := c.Recv()
	if err != nil {
		return err
	}
	limit := maxQueryPayload
	switch f.Type {
	case FrameDisclose:
	case FrameDiscloseAnon:
		limit = maxAnonQueryPayload
	default:
		s.met.rejected[rejectFrameType].Inc()
		return fmt.Errorf("discplane: protocol error: got frame %#x, want %#x", f.Type, FrameDisclose)
	}
	t0 := time.Now()
	s.met.queries.Inc()
	if len(f.Payload) > limit {
		s.met.rejected[rejectOversize].Inc()
		return s.refuse(c, t0, fmt.Sprintf("%d-byte query, limit %d", len(f.Payload), limit))
	}
	if f.Type == FrameDiscloseAnon {
		return s.respondAnon(c, f, t0)
	}
	q, err := DecodeQuery(f.Payload)
	if err != nil {
		s.met.rejected[rejectUndecodable].Inc()
		return s.refuse(c, t0, "undecodable query: "+err.Error())
	}
	payload, denial := s.answer(q, sess)
	el := time.Since(t0)
	s.met.latAll.ObserveDuration(el)
	if q.Role.valid() {
		s.met.roleLat(q.Role).ObserveDuration(el)
	}
	if denial != nil {
		s.met.denied.Inc()
		s.cfg.Logf("pvr: disclose: %s deny %s %s for %s epoch %d: %s",
			s.cfg.ASN, q.Requester, q.Role, q.Prefix, q.Epoch, denial.Detail)
		return netx.SendPooled(c, FrameDeny, denial.Encode())
	}
	s.met.served.Inc()
	// The served event carries the REQUESTER's propagated trace (the query
	// round-trip chain); the view payload itself carries the seal's trace,
	// which is cache-stable across requesters.
	s.tr.Record(obs.Event{
		Kind: obs.EvDisclosureServed, Epoch: q.Epoch, Window: s.cfg.Engine.Window(),
		Prefix: q.Prefix.String(), AS: uint32(q.Requester), Note: q.Role.String(),
	}.SetTrace(q.Trace))
	// View payloads are cached across queries (s.cache) — they must never
	// be recycled, so this send stays un-pooled.
	return c.Send(netx.Frame{Type: FrameView, Payload: payload})
}

// refuse answers a query the listener guard rejected with a best-effort
// DenyBadQuery and returns the error that ends the session.
func (s *Server) refuse(c FrameConn, t0 time.Time, why string) error {
	s.met.denied.Inc()
	s.met.latAll.ObserveSince(t0)
	_ = netx.SendPooled(c, FrameDeny, (&Denial{Code: DenyBadQuery, Detail: "malformed query"}).Encode())
	return fmt.Errorf("%w: %s", ErrBadQuery, why)
}

// respondAnon handles one anonymous (ring-signed) provider query: the
// answer is a provider-role VIEW, granted when the ring checks out, with
// no requester identity learned or recorded — the served event carries
// AS 0 and the ring size, which is exactly what a server-side observer
// can know.
func (s *Server) respondAnon(c FrameConn, f netx.Frame, t0 time.Time) error {
	q, err := DecodeAnonQuery(f.Payload)
	if err != nil {
		s.met.rejected[rejectUndecodable].Inc()
		return s.refuse(c, t0, "undecodable anonymous query: "+err.Error())
	}
	payload, denial := s.answerAnon(q)
	el := time.Since(t0)
	s.met.latAll.ObserveDuration(el)
	s.met.roleLat(RoleProvider).ObserveDuration(el)
	if denial != nil {
		s.met.denied.Inc()
		s.cfg.Logf("pvr: disclose: %s deny anon ring=%d %s epoch %d: %s",
			s.cfg.ASN, len(q.Ring), q.Prefix, q.Epoch, denial.Detail)
		return netx.SendPooled(c, FrameDeny, denial.Encode())
	}
	s.met.served.Inc()
	s.tr.Record(obs.Event{
		Kind: obs.EvDisclosureServed, Epoch: q.Epoch, Window: s.cfg.Engine.Window(),
		Prefix: q.Prefix.String(), AS: 0, Note: fmt.Sprintf("provider(anon k=%d)", len(q.Ring)),
	}.SetTrace(q.Trace))
	return c.Send(netx.Frame{Type: FrameView, Payload: payload})
}

// answerAnon applies α to an anonymous provider query. The requester is
// authenticated as "some member of a ring of declared providers"; the
// opened position must itself be a declared route length (the engine
// enforces it), so the grant reveals nothing a provider of that length
// was not already entitled to.
func (s *Server) answerAnon(q *AnonQuery) ([]byte, *Denial) {
	if s.cfg.Priv == nil {
		return nil, &Denial{Code: DenyAccess, Detail: "no privacy plane at this prover"}
	}
	if cur := s.cfg.Engine.Epoch(); q.Epoch != cur {
		return nil, &Denial{Code: DenyNotFound, Detail: fmt.Sprintf("epoch %d not served (current %d)", q.Epoch, cur)}
	}
	if q.Prover != 0 && q.Prover != s.cfg.ASN {
		return nil, &Denial{Code: DenyAccess, Detail: fmt.Sprintf("query addressed to %s, this prover is %s", q.Prover, s.cfg.ASN)}
	}
	msg, err := q.SignedBytes()
	if err != nil {
		return nil, &Denial{Code: DenyBadQuery, Detail: "unencodable query"}
	}
	sig, err := q.ringSig()
	if err != nil {
		return nil, &Denial{Code: DenyAccess, Detail: "malformed ring signature"}
	}
	if err := s.cfg.Priv.CheckAnon(q.Prefix, q.Ring, msg, sig); err != nil {
		return nil, &Denial{Code: DenyAccess, Detail: err.Error()}
	}
	if s.nonces.seen(q.Nonce) {
		return nil, &Denial{Code: DenyAccess, Detail: "replayed query nonce"}
	}
	window := s.cfg.Engine.Window()
	if old := s.cacheW.Load(); old != window && s.cacheW.CompareAndSwap(old, window) {
		var dropped uint64
		s.cache.Range(func(k, _ any) bool { s.cache.Delete(k); dropped++; return true })
		s.met.evicted.Add(dropped)
	}
	// The anonymous cache key carries the position, not a requester: every
	// ring member with the same route length gets byte-identical views.
	key := fmt.Sprintf("anon/%d/%d/%d/%s", q.Epoch, window, q.Position, q.Prefix)
	if cached, ok := s.cache.Load(key); ok {
		s.met.hits.Inc()
		return cached.([]byte), nil
	}
	pv, err := s.cfg.Engine.DiscloseAtLength(q.Prefix, int(q.Position))
	if err != nil {
		return nil, &Denial{Code: DenyAccess, Detail: fmt.Sprintf("position %d not openable for %s", q.Position, q.Prefix)}
	}
	view := &View{
		Role: RoleProvider, Key: s.cfg.Key,
		Sealed: pv.Sealed, Position: uint32(pv.Position), Opening: &pv.Opening,
	}
	if view.Sealed.Seal != nil {
		view.Trace = view.Sealed.Seal.Trace
	}
	payload, err := view.Encode()
	if err != nil {
		return nil, &Denial{Code: DenyNotFound, Detail: fmt.Sprintf("view encoding failed for %s", q.Prefix)}
	}
	s.met.misses.Inc()
	s.cache.Store(key, payload)
	return payload, nil
}

// authenticate establishes that a gated query comes from the principal it
// names. A signed query proves it on its own: the signature covers the
// addressed prover and a fresh nonce, both enforced here, so a captured
// query can be replayed neither to another prover nor to this one; it
// then binds the session. An unsigned one rides the binding a signed
// query left on the same connection, as the same principal.
func (s *Server) authenticate(q *Query, sess *session) *Denial {
	if q.Requester == 0 {
		return &Denial{Code: DenyAccess, Detail: fmt.Sprintf("anonymous requester cannot hold role %s", q.Role)}
	}
	if q.Prover != 0 && q.Prover != s.cfg.ASN {
		return &Denial{Code: DenyAccess, Detail: fmt.Sprintf("query addressed to %s, this prover is %s", q.Prover, s.cfg.ASN)}
	}
	if len(q.Sig) == 0 {
		if sess.bound == 0 || sess.bound != q.Requester {
			return &Denial{Code: DenyAccess, Detail: fmt.Sprintf("requester %s not authenticated", q.Requester)}
		}
		return nil
	}
	if err := q.Verify(s.cfg.Registry); err != nil {
		return &Denial{Code: DenyAccess, Detail: fmt.Sprintf("requester %s not authenticated", q.Requester)}
	}
	if stamp := NonceStamp(q.Nonce); stamp <= s.cfg.NonceFloor {
		return &Denial{Code: DenyAccess, Detail: "stale query nonce (below recovered floor)"}
	}
	if s.nonces.seen(q.Nonce) {
		return &Denial{Code: DenyAccess, Detail: "replayed query nonce"}
	}
	if s.cfg.OnNonce != nil {
		s.cfg.OnNonce(NonceStamp(q.Nonce))
	}
	if q.Prover == s.cfg.ASN {
		sess.bound = q.Requester
	}
	return nil
}

// answer applies α and builds the encoded VIEW payload for a query on a
// session, or the Denial that refuses it.
func (s *Server) answer(q *Query, sess *session) ([]byte, *Denial) {
	if !q.Role.valid() {
		return nil, &Denial{Code: DenyBadQuery, Detail: fmt.Sprintf("invalid role %d", uint8(q.Role))}
	}
	if cur := s.cfg.Engine.Epoch(); q.Epoch != cur {
		return nil, &Denial{Code: DenyNotFound, Detail: fmt.Sprintf("epoch %d not served (current %d)", q.Epoch, cur)}
	}
	// α authentication: provider and promisee views go to a principal,
	// never to a bare connection. The observer view is public material
	// (the same bytes gossip through the audit network), and the auditor
	// view is zero-knowledge by construction, so both may be anonymous.
	if q.Role != RoleObserver && q.Role != RoleAuditor {
		if denial := s.authenticate(q, sess); denial != nil {
			sess.refused = len(q.Sig) > 0
			return nil, denial
		}
	}
	// The cache key snapshots the window before building; a concurrent
	// re-seal at worst wastes one rebuild, never serves a stale window
	// under a fresh key.
	window := s.cfg.Engine.Window()
	if old := s.cacheW.Load(); old != window && s.cacheW.CompareAndSwap(old, window) {
		var dropped uint64
		s.cache.Range(func(k, _ any) bool { s.cache.Delete(k); dropped++; return true })
		s.met.evicted.Add(dropped)
	}
	key := fmt.Sprintf("%d/%d/%d/%d/%s", q.Role, uint32(q.Requester), q.Epoch, window, q.Prefix)
	if cached, ok := s.cache.Load(key); ok {
		s.met.hits.Inc()
		return cached.([]byte), nil
	}

	view := &View{Role: q.Role, Key: s.cfg.Key}
	switch q.Role {
	case RoleObserver:
		sc, err := s.cfg.Engine.Commitment(q.Prefix)
		if err != nil {
			return nil, &Denial{Code: DenyNotFound, Detail: fmt.Sprintf("no sealed commitment for %s", q.Prefix)}
		}
		view.Sealed = sc
	case RoleProvider:
		provs, err := s.cfg.Engine.Providers(q.Prefix)
		if err != nil {
			return nil, &Denial{Code: DenyNotFound, Detail: fmt.Sprintf("no sealed state for %s", q.Prefix)}
		}
		entitled := false
		for _, p := range provs {
			if p == q.Requester {
				entitled = true
				break
			}
		}
		if !entitled {
			return nil, &Denial{Code: DenyAccess, Detail: fmt.Sprintf("%s provided no route for %s this epoch", q.Requester, q.Prefix)}
		}
		pv, err := s.cfg.Engine.DiscloseToProvider(q.Prefix, q.Requester)
		if err != nil {
			return nil, &Denial{Code: DenyNotFound, Detail: fmt.Sprintf("disclosure unavailable for %s", q.Prefix)}
		}
		view.Sealed = pv.Sealed
		view.Position = uint32(pv.Position)
		view.Opening = &pv.Opening
		if s.cfg.Priv != nil {
			s.cfg.Priv.NoteAttributed()
		}
	case RoleAuditor:
		if s.cfg.Priv == nil {
			return nil, &Denial{Code: DenyAccess, Detail: "no privacy plane at this prover"}
		}
		vv, sc, err := s.cfg.Priv.VectorView(q.Prefix)
		if err != nil {
			return nil, &Denial{Code: DenyNotFound, Detail: fmt.Sprintf("no zero-knowledge opening for %s", q.Prefix)}
		}
		view.Sealed = sc
		view.ZKCommitments = vv.Commitments
		view.ZKProof = vv.Proof
	case RolePromisee:
		if s.cfg.IsPromisee == nil || !s.cfg.IsPromisee(q.Requester) {
			return nil, &Denial{Code: DenyAccess, Detail: fmt.Sprintf("%s is not a promisee of %s under α", q.Requester, s.cfg.ASN)}
		}
		mv, err := s.cfg.Engine.DiscloseToPromisee(q.Prefix, q.Requester)
		if err != nil {
			return nil, &Denial{Code: DenyNotFound, Detail: fmt.Sprintf("disclosure unavailable for %s", q.Prefix)}
		}
		view.Sealed = mv.Sealed
		view.Openings = mv.Openings
		view.Winner = mv.Winner
		view.Export = &mv.Export
		if mv.ExportOpening.Tag != "" {
			op := mv.ExportOpening
			view.ExportOpening = &op
		}
	}
	if view.Sealed != nil && view.Sealed.Seal != nil {
		view.Trace = view.Sealed.Seal.Trace
	}
	payload, err := view.Encode()
	if err != nil {
		return nil, &Denial{Code: DenyNotFound, Detail: fmt.Sprintf("view encoding failed for %s", q.Prefix)}
	}
	// A miss is a view built (and cached) fresh; denied queries never reach
	// here, so hits+misses tracks cacheable work, not every lookup.
	s.met.misses.Inc()
	s.cache.Store(key, payload)
	return payload, nil
}
