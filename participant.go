package pvr

import (
	"context"
	"fmt"
	"math/rand"
	"net/netip"
	"sync"
	"time"

	"pvr/internal/aspath"
	"pvr/internal/auditnet"
	"pvr/internal/bgp"
	"pvr/internal/core"
	"pvr/internal/discplane"
	"pvr/internal/engine"
	"pvr/internal/merkle"
	"pvr/internal/obs"
	"pvr/internal/obs/fleet"
	"pvr/internal/prefix"
	"pvr/internal/privplane"
	"pvr/internal/route"
	"pvr/internal/sigs"
	"pvr/internal/store"
	"pvr/internal/trace"
	"pvr/internal/updplane"
)

// Participant is one AS running all of PVR at once: the sharded prover
// Engine over its routing table, the streaming update plane that re-seals
// dirty shards under churn, BGP sessions that carry sealed commitments to
// neighbors (and verify what neighbors claim), the audit-network Auditor
// gossiping statements and evidence, and the persistent evidence ledger.
//
// The lifecycle is Open(ctx, opts...) → Run(ctx) → Stats() → Close():
// Open validates options, builds the stack, seals the first epoch over
// the originated prefixes, binds the listeners, and dials the configured
// peers; Run drives the periodic work (anti-entropy rounds, the optional
// synthetic churn feed) until its context ends, then closes the
// participant. Deterministic callers (tests, simulations) may skip Run
// and drive the participant directly with Submit, Flush, and Reconcile.
//
// All methods are safe for concurrent use.
type Participant struct {
	cfg       *participantConfig
	asn       ASN
	signer    Signer
	reg       *Registry
	keyBytes  []byte
	transport Transport
	// registered lists the ASNs whose keys Open added to the registry,
	// for rollback when a later build step fails. Written only by Open.
	registered []ASN

	eng      *Engine
	upstream ASN
	upSigner Signer
	pfxs     []Prefix

	plane   *updplane.Plane
	auditor *Auditor

	// dstate is the participant's durable state (nil without WithStore):
	// sealed window position, trust-on-first-use pins, and the
	// disclosure-nonce high-water mark, recovered at Open and written
	// ahead of publication while running. storeBk is the resolved
	// backend (shared with the ledger under "ledger/" when WithLedger is
	// absent); storeMet the pvr_store_* metric set both logs share.
	dstate     *durableState
	storeBk    store.Backend
	storeMet   *store.Metrics
	storeStats StoreStats

	// priv is the participant's privacy plane: ring-signature checking for
	// anonymous provider queries it serves, ring signing for anonymous
	// queries it issues, and zero-knowledge vector proofs when the engine
	// seals with WithZKDisclosure. Always built (its metric families are
	// part of the participant's observability surface); ringKey is nil
	// unless WithRingKey was given.
	priv    *privplane.Plane
	ringKey *privplane.RingKey

	bgpLis     Listener
	gossipLis  Listener
	discLis    Listener
	discServer *discplane.Server

	// lifeCtx spans Open to Close: BGP sessions run under it via
	// bgp.Session.Run, each accepted gossip connection is closed through
	// context.AfterFunc on it, and disclosure sessions run under it via
	// discplane.Server.Serve, so cancelling it is what tears the
	// participant's blocking I/O down.
	lifeCtx    context.Context
	lifeCancel context.CancelFunc

	sessions  *sessionSet
	advertise chan []bgp.Update
	sendDone  chan struct{}

	// obsReg and tracer are the participant's observability plane: every
	// subsystem registers its metric families into obsReg and records
	// lifecycle events into tracer. DebugHandler serves both.
	obsReg  *obs.Registry
	tracer  *obs.Tracer
	history *fleet.History
	bgpMet  *bgp.Metrics

	verified       *obs.Counter
	rejected       *obs.Counter
	sessionsOpened *obs.Counter
	queriesSent    *obs.Counter

	// verdicts memoizes verification verdicts across this participant's
	// disclosure queries, BGP-carried seal and route-signature checks, the
	// engine's checks of streamed announcements, the gossip observe path
	// and auditor-proof checks: every signature, keyed on (signer,
	// message, signature), and every zero-knowledge vector proof, keyed
	// on what it proves. Bounded (two
	// generations, sigs.MemoCap). Only checks against the participant's
	// own registry go through it — trust-on-first-use scratch registries
	// must not seed it, since a memoized signature verdict is a function
	// of (message, signature, key set). memoVer is the registry behind it.
	verdicts *sigs.VerifyMemo
	memoVer  sigs.Verifier

	// discPool keeps this participant's idle disclosure-query connections.
	discPool discPool

	mu      sync.Mutex
	closers []func()
	running bool
	closed  bool
}

// Open builds and starts a participant: options are validated, the engine
// commits and seals the originated prefixes into epoch 1, the auditor
// replays the ledger, the BGP and gossip listeners bind, and the
// configured peers are dialed (bounded by ctx). The returned participant
// is live — listeners accept, sessions pump — but periodic work (gossip
// rounds, synthetic churn) starts with Run.
func Open(ctx context.Context, opts ...Option) (*Participant, error) {
	cfg := defaultConfig()
	for _, opt := range opts {
		if opt == nil {
			return nil, errConfigf("open", "nil Option")
		}
		if err := opt(cfg); err != nil {
			return nil, err
		}
	}
	if cfg.asn == 0 {
		return nil, errConfigf("open", "WithASN is required")
	}
	if cfg.churn > 0 && len(cfg.originate) == 0 {
		return nil, errConfigf("open", "WithChurn requires WithOriginate")
	}
	p := &Participant{
		cfg:       cfg,
		asn:       cfg.asn,
		signer:    cfg.signer,
		reg:       cfg.registry,
		transport: cfg.transport,
		pfxs:      append([]Prefix(nil), cfg.originate...),
		sessions:  newSessionSet(),
		verdicts:  sigs.NewVerifyMemo(),
	}
	p.lifeCtx, p.lifeCancel = context.WithCancel(context.Background())
	p.initObs()
	if p.transport == nil {
		p.transport = TCP()
	}
	if p.reg == nil {
		p.reg = sigs.NewRegistry()
	}
	p.memoVer = p.verdicts.Bind(p.reg)
	// A shared registry may already hold a key for this ASN (e.g. another
	// participant's). Never overwrite it silently: signatures made under
	// the displaced key would stop verifying network-wide, and the two
	// keys publishing on the same topics could read as equivocation.
	// RegisterIfAbsent makes the check-and-install atomic, so concurrent
	// Opens against one shared registry cannot displace each other.
	generated := false
	if p.signer == nil {
		s, err := sigs.GenerateEd25519()
		if err != nil {
			return nil, wrapErr("open", err)
		}
		p.signer, generated = s, true
	}
	if existing, added := p.reg.RegisterIfAbsent(p.asn, p.signer.Public()); !added {
		if generated {
			return nil, errConfigf("open", "registry already holds a key for %s; pass WithSigner with the matching signer", p.asn)
		}
		if existing.Fingerprint() != p.signer.Public().Fingerprint() {
			return nil, errConfigf("open", "registry already holds a different key for %s", p.asn)
		}
	} else {
		p.registered = append(p.registered, p.asn)
	}
	var err error
	if p.keyBytes, err = p.signer.Public().Marshal(); err != nil {
		return nil, wrapErr("open", err)
	}
	// Every build step may have registered closers before failing;
	// teardown (idempotent) is owned here, never inside the builders. A
	// failed Open also rolls back the keys it added, so a caller-shared
	// registry is not poisoned for the retry.
	for _, step := range []func() error{
		p.buildStore,
		p.buildEngine,
		p.buildPriv,
		p.buildAuditor,
		p.buildPlane,
		p.bind,
		func() error { return p.dialPeers(ctx) },
	} {
		if err := step(); err != nil {
			p.teardown()
			for _, asn := range p.registered {
				p.reg.Unregister(asn)
			}
			return nil, err
		}
	}
	return p, nil
}

// buildEngine stands up the sharded prover and, when prefixes are
// originated, the synthetic upstream provider that announces them (the
// stand-in for real provider sessions), sealing the first epoch.
func (p *Participant) buildEngine() error {
	eng, err := engine.New(engine.Config{
		ASN: p.asn, Signer: p.signer, Registry: p.reg,
		Shards: p.cfg.shards, MaxLen: p.cfg.maxLen, Workers: p.cfg.workers,
		ZKBind: p.cfg.zkBind, Memo: p.verdicts,
		Obs: p.obsReg, Tracer: p.tracer,
	})
	if err != nil {
		return wrapErr("open", err)
	}
	// A recovered store resumes the sealed sequence: the engine re-enters
	// the epoch at the recovered window, so the first seal after restart
	// publishes at window+1 — commitments re-randomize on re-seal, and
	// reusing a window number the network already saw would read as
	// self-equivocation.
	if p.dstate != nil && p.storeStats.RecoveredEpoch != 0 {
		eng.ResumeEpoch(p.storeStats.RecoveredEpoch, p.storeStats.RecoveredWindow)
	} else {
		eng.BeginEpoch(1)
	}
	p.eng = eng
	if len(p.pfxs) == 0 {
		return nil
	}
	p.upstream = aspath.ASN(uint32(p.asn) + 1000)
	if p.upSigner, err = sigs.GenerateEd25519(); err != nil {
		return wrapErr("open", err)
	}
	// Same no-silent-overwrite rule as the participant's own key: the
	// synthetic upstream's ASN must not displace a real member of a
	// shared registry.
	if _, added := p.reg.RegisterIfAbsent(p.upstream, p.upSigner.Public()); !added {
		return errConfigf("open", "registry already holds a key for %s, which WithOriginate needs for its synthetic upstream; use a different ASN", p.upstream)
	}
	p.registered = append(p.registered, p.upstream)
	for _, pfx := range p.pfxs {
		ann, err := p.upstreamAnnouncement(pfx, 1)
		if err != nil {
			return wrapErr("open", err)
		}
		if err := eng.AcceptAnnouncement(ann, obs.TraceContext{}); err != nil {
			return wrapErr("open", err)
		}
	}
	if _, err := eng.SealEpoch(); err != nil {
		return wrapErr("open", err)
	}
	// Write-ahead: the window lands on disk before buildAuditor (and
	// later gossip or BGP) publishes any seal from it.
	if p.dstate != nil {
		if err := p.dstate.logWindow(eng.Epoch(), eng.Window()); err != nil {
			return wrapErr("open", err)
		}
	}
	return nil
}

// buildPriv stands up the privacy plane over the engine: the ring-key
// directory (shared via WithRingDirectory or private), the participant's
// own ring key registered into it when configured, and the pvr_priv_*
// metric families — which register unconditionally, like every other
// subsystem's.
func (p *Participant) buildPriv() error {
	dir := p.cfg.ringDir
	if dir == nil {
		dir = privplane.NewDirectory()
	}
	if p.cfg.ringKey != nil {
		if p.cfg.ringKey.ASN() != p.asn {
			return errConfigf("open", "ring key belongs to %s, participant is %s", p.cfg.ringKey.ASN(), p.asn)
		}
		p.ringKey = p.cfg.ringKey
		dir.Register(p.asn, p.ringKey.Public())
	}
	priv, err := privplane.New(privplane.Config{Engine: p.eng, Dir: dir, Memo: p.verdicts, Obs: p.obsReg})
	if err != nil {
		return wrapErr("open", err)
	}
	p.priv = priv
	return nil
}

// buildAuditor opens the ledger (replaying convictions) and seeds the
// auditor with the participant's own shard seals.
func (p *Participant) buildAuditor() error {
	// The auditor verifies statements through the participant's verdict
	// memo: a seal statement checked on the gossip observe path is already
	// settled when a disclosure query or a sealed BGP update presents the
	// same seal, and vice versa.
	cfg := auditnet.Config{
		ASN: p.asn, Registry: p.memoVer,
		Obs: p.obsReg, Tracer: p.tracer,
	}
	var (
		led  *auditnet.Ledger
		recs []auditnet.LedgerRecord
		err  error
	)
	switch {
	case p.cfg.ledgerPath != "":
		led, recs, err = auditnet.OpenLedgerAt(p.cfg.ledgerPath, p.storeOptions())
	case p.storeBk != nil:
		// No explicit ledger path, but a durable store: the evidence
		// ledger rides the same backend under its own WAL. Convictions
		// are never snapshotted — replay re-verifies every signature, so
		// a tampered store cannot mint one.
		led, recs, err = auditnet.OpenLedgerBackend(store.Sub(p.storeBk, "ledger"), p.storeOptions())
	}
	if err != nil {
		return wrapErr("open", err)
	}
	if led != nil {
		cfg.Ledger, cfg.Replay = led, recs
		if len(recs) > 0 {
			src := led.Path()
			if src == "" {
				src = "the durable store"
			}
			p.cfg.logf("pvr: replayed %d evidence records from %s", len(recs), src)
		}
		p.addCloser(func() {
			if err := led.Close(); err != nil {
				p.cfg.logf("pvr: ledger close: %v", err)
			}
		})
	}
	aud, err := auditnet.New(cfg)
	if err != nil {
		return wrapErr("open", err)
	}
	p.auditor = aud
	for _, c := range aud.Convictions() {
		p.cfg.logf("pvr: audit: %s stands convicted (%s)", c.ASN, c.Detail)
	}
	for _, s := range p.eng.Seals() {
		if _, _, err := aud.AddRecord(auditnet.Record{Epoch: s.Epoch, S: s.Statement(), Trace: s.Trace}); err != nil {
			return wrapErr("open", err)
		}
	}
	return nil
}

// buildPlane starts the streaming update plane and the asynchronous
// re-advertisement sender (a stalled peer's buffer must never wedge the
// plane loop).
func (p *Participant) buildPlane() error {
	p.advertise = make(chan []bgp.Update, 4)
	p.sendDone = make(chan struct{})
	go func() {
		defer close(p.sendDone)
		for batch := range p.advertise {
			for _, u := range batch {
				p.sessions.each(func(s *bgp.Session) {
					if s.State() == bgp.StateEstablished {
						_ = s.SendUpdate(u)
					}
				})
			}
		}
	}()
	plane, err := updplane.New(updplane.Config{
		Engine:    p.eng,
		Window:    p.cfg.window,
		QueueSize: p.cfg.queue,
		MaxBatch:  p.cfg.maxBatch,
		Workers:   p.cfg.workers,
		OnWindow:  p.onWindow,
		Obs:       p.obsReg,
		Tracer:    p.tracer,
	})
	if err != nil {
		close(p.advertise)
		return wrapErr("open", err)
	}
	p.plane = plane
	p.addCloser(func() {
		if err := plane.Close(); err != nil {
			p.cfg.logf("pvr: update plane: %v", err)
		}
		close(p.advertise)
		select {
		case <-p.sendDone:
		case <-time.After(200 * time.Millisecond):
			// Sessions are already closed by the time this closer runs, so
			// the sender drains fast; the timeout is a backstop only.
		}
	})
	return nil
}

// onWindow publishes the window's fresh seals to the auditor and queues
// the changed prefixes for re-advertisement to every live session.
func (p *Participant) onWindow(w updplane.WindowResult) {
	// Write-ahead: the window number must be durable before any of its
	// seals escape the process. If the log cannot commit it, publishing
	// anyway could let a post-crash restart resume below a window the
	// network has seen — so publication is suppressed instead.
	if p.dstate != nil {
		if err := p.dstate.logWindow(p.eng.Epoch(), w.Window); err != nil {
			p.cfg.logf("pvr: window %d: durable log failed, suppressing publication: %v", w.Window, err)
			return
		}
	}
	for _, s := range w.Seals {
		if _, _, err := p.auditor.AddRecord(auditnet.Record{Epoch: s.Epoch, S: s.Statement(), Trace: s.Trace}); err != nil {
			p.cfg.logf("pvr: window %d audit: %v", w.Window, err)
		}
	}
	batch, sent, withdrawn := p.windowUpdates(w)
	select {
	case p.advertise <- batch:
	default:
		p.cfg.logf("pvr: window %d: peers slow, dropped re-advertisement of %d updates", w.Window, len(batch))
	}
	p.cfg.logf("pvr: window %d: %d events, %d dirty prefixes, rebuilt %d/%d shards, re-advertised %d, withdrew %d (seal %s)",
		w.Window, w.Events, w.DirtyPrefixes, len(w.Rebuilt), w.TotalShards, sent, withdrawn,
		w.SealLatency.Round(time.Microsecond))
	if p.dstate != nil {
		p.dstate.maybeSnapshot()
	}
}

// windowUpdates builds the UPDATE for each of the window's prefixes, in
// w.Prefixes order: the prefix's sealed route, or its withdrawal once it
// has left the table. Each advertised route costs one signature, so the
// UPDATEs are built on the plane's worker pool.
func (p *Participant) windowUpdates(w updplane.WindowResult) (batch []bgp.Update, sent, withdrawn int) {
	type built struct {
		u   bgp.Update
		ok  bool
		err error
	}
	out := make([]built, len(w.Prefixes))
	p.plane.Each(len(out), func(i int) {
		b := &out[i]
		b.u, b.ok, b.err = p.updateFor(w.Prefixes[i])
	})
	batch = make([]bgp.Update, 0, len(out))
	for i, b := range out {
		pfx := w.Prefixes[i]
		switch {
		case b.err != nil:
			p.cfg.logf("pvr: window %d %s: %v", w.Window, pfx, b.err)
			continue
		case b.ok:
			sent++
		default:
			b.u = bgp.Update{Withdrawn: []prefix.Prefix{pfx}}
			withdrawn++
		}
		batch = append(batch, b.u)
	}
	return batch, sent, withdrawn
}

// bind starts the BGP and gossip listeners. The lifecycle closer is
// registered first (so it runs last, after the listeners have stopped
// accepting): cancelling lifeCtx makes every BGP session's Run, every
// gossip connection's AfterFunc and every disclosure session's Serve tear
// their own connection down, including ones admitted while teardown is in
// flight;
// the idle disclosure connections this participant dialed close with it.
func (p *Participant) bind() error {
	p.addCloser(func() {
		p.sessions.markClosed()
		p.lifeCancel()
		p.discPool.close()
	})
	if p.cfg.listen != "" {
		lis, err := p.transport.Listen(p.cfg.listen, p.runSession)
		if err != nil {
			return wrapErr("open", err)
		}
		p.bgpLis = lis
		p.addCloser(func() { _ = lis.Close() })
		p.cfg.logf("pvr: %s listening on %s", p.asn, lis.Addr())
	}
	if p.cfg.gossipListen != "" {
		lis, err := p.transport.Listen(p.cfg.gossipListen, func(c Conn) {
			defer c.Close()
			stop := context.AfterFunc(p.lifeCtx, func() { _ = c.Close() })
			defer stop()
			for {
				if _, err := p.auditor.Respond(c); err != nil {
					return // peer hung up, protocol error, or participant closing
				}
			}
		})
		if err != nil {
			return wrapErr("open", err)
		}
		p.gossipLis = lis
		p.addCloser(func() { _ = lis.Close() })
		p.cfg.logf("pvr: %s audit gossip listening on %s", p.asn, lis.Addr())
	}
	if p.cfg.discloseListen != "" {
		promisees := make(map[ASN]bool, len(p.cfg.promisees))
		for _, a := range p.cfg.promisees {
			promisees[a] = true
		}
		dcfg := discplane.Config{
			ASN:        p.asn,
			Engine:     p.eng,
			Registry:   p.reg,
			IsPromisee: func(a aspath.ASN) bool { return promisees[a] },
			Key:        p.keyBytes,
			Priv:       p.priv,
			Logf:       p.cfg.logf,
			Obs:        p.obsReg,
			Tracer:     p.tracer,
		}
		if p.dstate != nil {
			// Replay protection across restarts: nonces served before the
			// crash are at or below the recovered high-water mark, and
			// every nonce served from now on is logged behind the mark.
			dcfg.NonceFloor = p.dstate.nonceFloor()
			dcfg.OnNonce = p.dstate.logNonce
		}
		srv, err := discplane.NewServer(dcfg)
		if err != nil {
			return wrapErr("open", err)
		}
		p.discServer = srv
		lis, err := p.transport.Listen(p.cfg.discloseListen, func(c Conn) {
			defer c.Close()
			// One session per connection, until the peer hangs up, the
			// listener guard refuses a frame, or the participant closes.
			_ = srv.Serve(p.lifeCtx, c)
		})
		if err != nil {
			return wrapErr("open", err)
		}
		p.discLis = lis
		p.addCloser(func() { _ = lis.Close() })
		p.cfg.logf("pvr: %s disclosure query plane listening on %s", p.asn, lis.Addr())
	}
	return nil
}

// dialPeers establishes outbound sessions, bounded by ctx.
func (p *Participant) dialPeers(ctx context.Context) error {
	for _, addr := range p.cfg.peers {
		conn, err := p.transport.Dial(ctx, addr)
		if err != nil {
			return wrapErr("open", err)
		}
		go p.runSession(conn)
	}
	return nil
}

// runSession drives one BGP session (either direction): on establishment
// the sealed table is advertised; every received route is verified
// against the peer's sealed commitments, with the peer's key pinned
// trust-on-first-use when the registry does not already hold it.
func (p *Participant) runSession(c Conn) {
	var (
		vmu     sync.Mutex
		peerASN aspath.ASN
		haveKey bool
	)
	var s *bgp.Session
	s = bgp.NewSession(c, bgp.Open{ASN: p.asn, HoldTime: p.cfg.hold, RouterID: uint32(p.asn)}, bgp.SessionHooks{
		OnEstablished: func(peer bgp.Open) {
			vmu.Lock()
			peerASN = peer.ASN
			if _, err := p.reg.Lookup(peer.ASN); err == nil {
				haveKey = true
			}
			vmu.Unlock()
			p.cfg.logf("pvr: %s established with %s", p.asn, peer.ASN)
			if len(p.pfxs) > 0 {
				go p.advertiseTable(s)
			}
		},
		OnUpdate: func(u bgp.Update) {
			vmu.Lock()
			defer vmu.Unlock()
			tc := traceFromUpdate(u)
			for _, r := range u.Announced {
				if p.auditor.Convicted(peerASN) {
					p.rejected.Inc()
					p.tracer.Record(obs.Event{
						Kind: obs.EvRouteRejected, Epoch: p.eng.Epoch(),
						Prefix: r.Prefix.String(), AS: uint32(peerASN), Note: "peer convicted",
					}.SetTrace(tc))
					p.cfg.logf("pvr: %s learned %s — REJECTED: %s convicted by audit", p.asn, r, peerASN)
					continue
				}
				if err := p.verifySealedRoute(peerASN, r, u, &haveKey, tc); err != nil {
					p.rejected.Inc()
					p.tracer.Record(obs.Event{
						Kind: obs.EvRouteRejected, Epoch: p.eng.Epoch(),
						Prefix: r.Prefix.String(), AS: uint32(peerASN), Note: err.Error(),
					}.SetTrace(tc))
					p.cfg.logf("pvr: %s learned %s — REJECTED: %v", p.asn, r, err)
					continue
				}
				p.verified.Inc()
				p.tracer.Record(obs.Event{
					Kind: obs.EvRouteVerified, Epoch: p.eng.Epoch(),
					Prefix: r.Prefix.String(), AS: uint32(peerASN),
				}.SetTrace(tc))
				p.cfg.logf("pvr: %s learned %s — sealed commitment verified", p.asn, r)
			}
			for _, w := range u.Withdrawn {
				p.cfg.logf("pvr: %s withdrawn %s", p.asn, w)
			}
		},
		OnClose: func(err error) {
			p.cfg.logf("pvr: %s session closed: %v", p.asn, err)
		},
		Metrics: p.bgpMet,
	})
	if !p.sessions.add(s) {
		_ = c.Close() // participant already closing
		return
	}
	p.sessionsOpened.Inc()
	defer p.sessions.remove(s)
	_ = s.Run(p.lifeCtx)
}

// advertiseTable sends every sealed prefix with its commitment chain to
// one established session. Under streaming, a shard is transiently
// unsealed between a mutation and the window's SealDirty; retry across a
// few window intervals before concluding a prefix is gone.
func (p *Participant) advertiseTable(s *bgp.Session) {
	for _, pfx := range p.pfxs {
		var u bgp.Update
		ok := false
		for attempt := 0; attempt < 30 && s.State() == bgp.StateEstablished; attempt++ {
			var err error
			u, ok, err = p.updateFor(pfx)
			if err != nil {
				p.cfg.logf("pvr: advertise %s: %v", pfx, err)
				break // this prefix only; the rest of the table still goes out
			}
			if ok {
				break
			}
			time.Sleep(50 * time.Millisecond)
		}
		if !ok {
			continue // withdrawn from the table (or errored above)
		}
		if err := s.SendUpdate(u); err != nil {
			return // session dead; nothing more can be sent
		}
	}
}

// updateFor builds the UPDATE advertising one prefix with its current
// commitment chain attached; ok is false when the prefix is no longer in
// the sealed table (callers withdraw instead).
func (p *Participant) updateFor(pfx Prefix) (bgp.Update, bool, error) {
	sc, exported, err := p.eng.Advertisement(pfx)
	if err != nil {
		return bgp.Update{}, false, nil // withdrawn (or not yet re-sealed)
	}
	mcBytes, err := sc.MC.SignedBytes()
	if err != nil {
		return bgp.Update{}, false, err
	}
	proofBytes, err := sc.Proof.MarshalBinary()
	if err != nil {
		return bgp.Update{}, false, err
	}
	sealBytes, err := sc.Seal.MarshalBinary()
	if err != nil {
		return bgp.Update{}, false, err
	}
	// The route body itself is signed per route (§3.2 announcement
	// signing): the sealed commitment authenticates the promise state, not
	// the path and next hop the update carries.
	body, err := exported.MarshalBinary()
	if err != nil {
		return bgp.Update{}, false, err
	}
	routeSig, err := p.signer.Sign(body)
	if err != nil {
		return bgp.Update{}, false, err
	}
	u := bgp.Update{
		Announced: []route.Route{exported},
		Attachments: map[string][]byte{
			"pvr/sig":   routeSig,
			"pvr/mc":    mcBytes,
			"pvr/proof": proofBytes,
			"pvr/seal":  sealBytes,
			"pvr/key":   p.keyBytes,
		},
	}
	// The seal's distributed-trace context travels as its own attachment:
	// Seal.MarshalBinary excludes it (trace is observability metadata, never
	// signed material), and receivers that predate tracing simply never look
	// the key up.
	if !sc.Seal.Trace.IsZero() {
		u.Attachments["pvr/trace"] = sc.Seal.Trace.AppendWire(nil)
	}
	if sc.HasZK {
		u.Attachments["pvr/zk"] = sc.ZKDigest[:]
	}
	return u, true, nil
}

// traceFromUpdate recovers the distributed-trace context a sealed update
// carries in its "pvr/trace" attachment; zero when absent or malformed
// (tracing is best-effort metadata, never a verification input).
func traceFromUpdate(u bgp.Update) obs.TraceContext {
	tb, ok := u.Attachments["pvr/trace"]
	if !ok {
		return obs.TraceContext{}
	}
	tc, err := obs.TraceContextFromWire(tb)
	if err != nil {
		return obs.TraceContext{}
	}
	return tc
}

// verifySealedRoute checks what an update's attachments establish, rooted
// in the peer's key: the route body's own signature (§3.2), the engine
// commitment chain (seal signature, prefix→shard binding, Merkle
// inclusion), and that the commitment covers exactly the announced prefix
// as the session peer's statement.
//
// When the registry does not already hold a key for the peer, one is
// pinned trust-on-first-use — but only into a registry private to this
// participant (no WithRegistry), and only after the full chain verifies
// under the candidate key. A shared registry is the out-of-band PKI the
// paper assumes, and a peer-supplied key for a peer-claimed ASN must
// never be written into it: that would let an attacker impersonate (and
// then frame, via forged equivocation) any AS the network has not met.
func (p *Participant) verifySealedRoute(peer aspath.ASN, r route.Route, u bgp.Update, haveKey *bool, tc obs.TraceContext) error {
	mcBytes, proofBytes, sealBytes := u.Attachments["pvr/mc"], u.Attachments["pvr/proof"], u.Attachments["pvr/seal"]
	if mcBytes == nil || proofBytes == nil || sealBytes == nil {
		return errKind(KindVerification, "verify", fmt.Errorf("missing engine attachments"))
	}
	// On the shared-registry path both signature checks go through the
	// verdict memo: Ed25519 is deterministic, so a flapping route announced
	// again carries the same signed bytes, and a sealed update stream
	// re-ships the same shard seal with every prefix in the shard. A
	// trust-on-first-use check is relative to the candidate key and must
	// not seed the memo.
	ver := p.memoVer
	var pinned sigs.PublicKey
	if !*haveKey {
		if p.cfg.registry != nil {
			return errKind(KindVerification, "verify",
				fmt.Errorf("no key for %s in the shared registry (trust-on-first-use is disabled when the PKI is out-of-band)", peer))
		}
		kb := u.Attachments["pvr/key"]
		if kb == nil {
			return errKind(KindVerification, "verify", fmt.Errorf("no key attachment"))
		}
		k, err := sigs.UnmarshalPublicKey(kb)
		if err != nil {
			return errKind(KindVerification, "verify", err)
		}
		// Verify against a scratch registry first; the pin is committed
		// only if the whole chain checks out under this key.
		scratch := sigs.NewRegistry()
		scratch.Register(peer, k)
		pinned, ver = k, scratch
	}
	body, err := r.MarshalBinary()
	if err != nil {
		return errKind(KindVerification, "verify", err)
	}
	if err := ver.Verify(peer, body, u.Attachments["pvr/sig"]); err != nil {
		return errKind(KindVerification, "verify", fmt.Errorf("route signature: %w", err))
	}
	var seal engine.Seal
	if err := seal.UnmarshalBinary(sealBytes); err != nil {
		return errKind(KindVerification, "verify", err)
	}
	if seal.Prover != peer {
		return errKind(KindVerification, "verify", fmt.Errorf("seal from %s, session peer is %s", seal.Prover, peer))
	}
	mc, err := core.ParseMinCommitmentBytes(mcBytes)
	if err != nil {
		return errKind(KindVerification, "verify", err)
	}
	if mc.Prefix != r.Prefix {
		return errKind(KindVerification, "verify", fmt.Errorf("commitment covers %s, route announces %s", mc.Prefix, r.Prefix))
	}
	var proof merkle.BatchProof
	if err := proof.UnmarshalBinary(proofBytes); err != nil {
		return errKind(KindVerification, "verify", err)
	}
	sc := engine.SealedCommitment{MC: mc, Proof: &proof, Seal: &seal}
	// A prover sealing with WithZKDisclosure binds the prefix's Pedersen
	// vector digest into the leaf; without it the leaf cannot be rebuilt.
	if zk, ok := u.Attachments["pvr/zk"]; ok {
		if len(zk) != len(sc.ZKDigest) {
			return errKind(KindVerification, "verify", fmt.Errorf("ZK digest attachment of %d bytes", len(zk)))
		}
		copy(sc.ZKDigest[:], zk)
		sc.HasZK = true
	}
	if err := sc.Verify(ver); err != nil {
		return errKind(KindVerification, "verify", err)
	}
	if pinned != nil {
		p.reg.Register(peer, pinned)
		*haveKey = true
		fp := pinned.Fingerprint()
		p.cfg.logf("pvr: %s pinned %s's key (trust-on-first-use, fp %x…)", p.asn, peer, fp[:6])
		// Persist the pin so the peer cannot present a different key
		// after our restart. Failure is logged, not fatal: the chain
		// verified, the route is good — only restart continuity suffers.
		if p.dstate != nil {
			if err := p.dstate.logPin(peer, u.Attachments["pvr/key"]); err != nil {
				p.cfg.logf("pvr: %s pin of %s not durable: %v", p.asn, peer, err)
			}
		}
	}
	// Feed the session-carried seal into the audit store: what a peer
	// shows us over BGP must be the same statement it gossips, and the
	// same statement it serves on the disclosure query plane. A conflict
	// is transferable equivocation evidence — judged, convicted, and
	// ledgered by AddRecord — and the route is rejected with it.
	_, conflict, aerr := p.auditor.AddRecord(auditnet.Record{Epoch: seal.Epoch, S: seal.Statement(), Trace: tc})
	if aerr != nil {
		return errKind(KindVerification, "verify", aerr)
	}
	if conflict != nil {
		return errKind(KindConvicted, "verify",
			fmt.Errorf("session seal equivocates with gossip on %s: %s convicted", conflict.Topic, peer))
	}
	return nil
}

// upstreamAnnouncement synthesizes the upstream provider's signed route
// for an originated prefix with the given AS-path length.
func (p *Participant) upstreamAnnouncement(pfx Prefix, pathLen int) (core.Announcement, error) {
	asns := make([]aspath.ASN, pathLen)
	asns[0] = p.upstream
	for i := 1; i < pathLen; i++ {
		asns[i] = aspath.ASN(65000 + i)
	}
	r := route.Route{
		Prefix:  pfx,
		Path:    aspath.New(asns...),
		NextHop: netip.MustParseAddr("192.0.2.1"),
	}
	return core.NewAnnouncement(p.upSigner, p.upstream, p.asn, 1, r)
}

// Run drives the participant's periodic work — anti-entropy rounds with
// the configured gossip peers and the optional synthetic churn feed —
// until ctx ends, then closes the participant and returns the close
// error (nil on a clean shutdown). Run may be called once.
func (p *Participant) Run(ctx context.Context) error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return errKind(KindClosed, "run", fmt.Errorf("participant closed"))
	}
	if p.running {
		p.mu.Unlock()
		return errConfigf("run", "Run already called")
	}
	p.running = true
	p.mu.Unlock()

	var wg sync.WaitGroup
	if len(p.cfg.gossipPeers) > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.gossipLoop(ctx)
		}()
	}
	if p.cfg.churn > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.churnFeed(ctx)
		}()
	}
	// Metric time series: one registry sample per seal window, into the
	// bounded history ring /metrics/history serves.
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(p.cfg.window)
		defer tick.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-tick.C:
				p.SampleMetrics()
			}
		}
	}()
	<-ctx.Done()
	wg.Wait()
	return p.Close()
}

// gossipLoop reconciles with each configured audit peer every interval.
func (p *Participant) gossipLoop(ctx context.Context) {
	tick := time.NewTicker(p.cfg.gossipInterval)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
		for _, peer := range p.cfg.gossipPeers {
			st, err := p.Reconcile(ctx, peer)
			if err != nil {
				p.cfg.logf("pvr: audit %s: %v", peer, err)
				continue
			}
			if st.NewStatements > 0 || st.NewConflicts > 0 {
				p.cfg.logf("pvr: audit %s: +%d statements, +%d convictions (%d B)",
					peer, st.NewStatements, st.NewConflicts, st.Bytes())
			}
		}
	}
}

// churnFeed streams the configured number of synthetic trace events over
// the originated prefixes through the update plane — the §3.8 demo
// workload cmd/pvrd exposes as -stream.
func (p *Participant) churnFeed(ctx context.Context) {
	events, err := trace.Generate(trace.Config{
		Prefixes: len(p.pfxs), Events: p.cfg.churn,
		MeanGap: p.cfg.window / 4, BurstLen: 4, WithdrawRatio: 0.2, Seed: 1,
	})
	if err != nil {
		p.cfg.logf("pvr: churn: %v", err)
		return
	}
	// Map the generator's universe back onto the originated prefixes.
	uni := trace.Universe(len(p.pfxs))
	idx := make(map[prefix.Prefix]int, len(uni))
	for i, pfx := range uni {
		idx[pfx] = i
	}
	rng := rand.New(rand.NewSource(1))
	p.cfg.logf("pvr: streaming %d churn events over %d prefixes (window %s)",
		len(events), len(p.pfxs), p.cfg.window)
	last := time.Duration(0)
	for _, ev := range events {
		if gap := ev.At - last; gap > 0 {
			select {
			case <-ctx.Done():
				return
			case <-time.After(gap):
			}
		}
		last = ev.At
		pfx := p.pfxs[idx[ev.Prefix]]
		if ev.Kind == trace.Withdraw {
			if p.plane.SubmitContext(ctx, updplane.WithdrawEvent(p.upstream, pfx)) != nil {
				return
			}
			continue
		}
		ann, err := p.upstreamAnnouncement(pfx, 1+rng.Intn(8))
		if err != nil {
			p.cfg.logf("pvr: churn announce: %v", err)
			return
		}
		if p.plane.SubmitContext(ctx, updplane.AnnounceEvent(p.upstream, ann)) != nil {
			return
		}
	}
	p.cfg.logf("pvr: churn stream drained")
}

// Submit feeds one update event (announce or withdraw) into the streaming
// plane, blocking under backpressure until ctx ends. See AnnounceEvent
// and WithdrawEvent.
func (p *Participant) Submit(ctx context.Context, ev UpdateEvent) error {
	return wrapErr("submit", p.plane.SubmitContext(ctx, ev))
}

// TrySubmit is Submit without blocking: a full ingest queue returns an
// error matching ErrBackpressure.
func (p *Participant) TrySubmit(ev UpdateEvent) error {
	return wrapErr("submit", p.plane.TrySubmit(ev))
}

// Flush drains everything already submitted, seals a commitment window,
// and returns it — the deterministic alternative to the WithWindow timer.
func (p *Participant) Flush(ctx context.Context) (UpdateWindow, error) {
	w, err := p.plane.FlushContext(ctx)
	return w, wrapErr("flush", err)
}

// Reconcile runs one audit anti-entropy round with the peer at addr
// (dialed through the participant's transport), returning what moved.
func (p *Participant) Reconcile(ctx context.Context, addr string) (*AuditStats, error) {
	conn, err := p.transport.Dial(ctx, addr)
	if err != nil {
		return nil, wrapErr("reconcile", err)
	}
	defer conn.Close()
	stop := context.AfterFunc(ctx, func() { _ = conn.Close() })
	defer stop()
	st, err := p.auditor.Reconcile(conn)
	if err != nil {
		if cerr := ctx.Err(); cerr != nil {
			err = cerr // the exchange failed because ctx closed the connection
		}
		return nil, wrapErr("reconcile", err)
	}
	return st, nil
}

// SignStatement signs an arbitrary gossip statement as this participant.
// Honest participants publish only through their seals; this is for
// simulations and tests that model Byzantine equivocation.
func (p *Participant) SignStatement(topic string, payload []byte) (Statement, error) {
	sig, err := p.signer.Sign(payload)
	if err != nil {
		return Statement{}, wrapErr("sign", err)
	}
	return Statement{Origin: p.asn, Topic: topic, Payload: payload, Sig: sig}, nil
}

// ASN returns the participant's AS number.
func (p *Participant) ASN() ASN { return p.asn }

// Registry exposes the participant's verification-key registry (shared
// with its auditor; trust-on-first-use pins land here).
func (p *Participant) Registry() *Registry { return p.reg }

// Engine exposes the sharded prover for disclosure and commitment
// queries; mutate the table through Submit/Flush, not the engine.
func (p *Participant) Engine() *Engine { return p.eng }

// Auditor exposes the audit-network node (statement ingest, convictions,
// evidence).
func (p *Participant) Auditor() *Auditor { return p.auditor }

// RingDirectory exposes the participant's ring-key directory: register
// peers' ring keys here (RingKey.PublicBytes over whatever out-of-band
// channel distributes Ed25519 keys) so anonymous queries can be signed
// and checked against them.
func (p *Participant) RingDirectory() *RingDirectory { return p.priv.Dir() }

// Addr returns the bound BGP listen address ("" when not listening).
func (p *Participant) Addr() string {
	if p.bgpLis == nil {
		return ""
	}
	return p.bgpLis.Addr()
}

// GossipAddr returns the bound audit-gossip address ("" when not
// listening).
func (p *Participant) GossipAddr() string {
	if p.gossipLis == nil {
		return ""
	}
	return p.gossipLis.Addr()
}

// ParticipantStats is a point-in-time snapshot of a participant.
type ParticipantStats struct {
	// ASN is the participant's AS number.
	ASN ASN
	// Epoch and Window are the engine's current epoch and seal window.
	Epoch, Window uint64
	// Prefixes is the sealed table size; Shards the engine shard count.
	Prefixes, Shards int
	// Sessions counts live BGP sessions (both directions);
	// SessionsOpened counts every session ever admitted, so
	// SessionsOpened > 0 && Sessions == 0 reliably means "had sessions,
	// all gone" even for sessions that lived briefly.
	Sessions       int
	SessionsOpened uint64
	// RoutesVerified and RoutesRejected count learned-route outcomes.
	RoutesVerified, RoutesRejected uint64
	// AuditRecords is the statement-store size; Convictions the
	// convicted-AS set size.
	AuditRecords, Convictions int
	// DisclosuresServed and DisclosuresDenied count what the disclosure
	// query plane answered (zero when not serving); DisclosureQueries
	// counts the queries this participant issued as a client.
	DisclosuresServed, DisclosuresDenied uint64
	DisclosureQueries                    uint64
	// Plane is the streaming update plane's counter snapshot.
	Plane UpdatePlaneStats
	// Store reports what the durable store recovered at Open (zero when
	// running without one).
	Store StoreStats
}

// Stats snapshots the participant.
func (p *Participant) Stats() ParticipantStats {
	var served, denied uint64
	if p.discServer != nil {
		served, denied = p.discServer.Served(), p.discServer.Denied()
	}
	return ParticipantStats{
		DisclosuresServed: served,
		DisclosuresDenied: denied,
		DisclosureQueries: p.queriesSent.Value(),
		ASN:               p.asn,
		Epoch:             p.eng.Epoch(),
		Window:            p.eng.Window(),
		Prefixes:          p.eng.PrefixCount(),
		Shards:            p.eng.ShardCount(),
		Sessions:          p.sessions.len(),
		SessionsOpened:    p.sessionsOpened.Value(),
		RoutesVerified:    p.verified.Value(),
		RoutesRejected:    p.rejected.Value(),
		AuditRecords:      p.auditor.Store().Records(),
		Convictions:       len(p.auditor.Convictions()),
		Plane:             p.plane.Stats(),
		Store:             p.storeStats,
	}
}

// Close shuts the participant down: listeners stop, the plane seals its
// final window and exits, sessions close with CEASE, and the ledger is
// flushed. Idempotent; safe concurrently with Run.
func (p *Participant) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	p.mu.Unlock()
	p.teardown()
	return nil
}

func (p *Participant) addCloser(fn func()) {
	p.mu.Lock()
	p.closers = append(p.closers, fn)
	p.mu.Unlock()
}

// teardown runs registered cleanup newest-first.
func (p *Participant) teardown() {
	p.mu.Lock()
	fns := p.closers
	p.closers = nil
	p.mu.Unlock()
	for i := len(fns) - 1; i >= 0; i-- {
		fns[i]()
	}
}

// sessionSet tracks live BGP sessions so window re-advertisement can
// reach them. After markClosed, add refuses new sessions so none can
// slip past teardown; the sessions themselves are closed by their Run
// when the participant's lifecycle context ends.
type sessionSet struct {
	mu       sync.Mutex
	closed   bool
	sessions map[*bgp.Session]bool
}

func newSessionSet() *sessionSet {
	return &sessionSet{sessions: make(map[*bgp.Session]bool)}
}

func (ss *sessionSet) add(s *bgp.Session) bool {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if ss.closed {
		return false
	}
	ss.sessions[s] = true
	return true
}

func (ss *sessionSet) remove(s *bgp.Session) { ss.mu.Lock(); delete(ss.sessions, s); ss.mu.Unlock() }

func (ss *sessionSet) markClosed() { ss.mu.Lock(); ss.closed = true; ss.mu.Unlock() }

func (ss *sessionSet) len() int {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	return len(ss.sessions)
}

func (ss *sessionSet) each(fn func(*bgp.Session)) {
	ss.mu.Lock()
	open := make([]*bgp.Session, 0, len(ss.sessions))
	for s := range ss.sessions {
		open = append(open, s)
	}
	ss.mu.Unlock()
	for _, s := range open {
		fn(s)
	}
}
