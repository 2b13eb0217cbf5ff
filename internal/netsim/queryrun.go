package netsim

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/netip"
	"sort"
	"sync"
	"time"

	"pvr/internal/aspath"
	"pvr/internal/core"
	"pvr/internal/discplane"
	"pvr/internal/engine"
	"pvr/internal/netx"
	"pvr/internal/obs"
	"pvr/internal/prefix"
	"pvr/internal/route"
	"pvr/internal/sigs"
	"pvr/internal/trace"
)

// QueryConfig parameterizes a disclosure-query-plane run (experiment
// E13): one prover serving its sealed multi-prefix table over the
// DISCLOSE/VIEW/DENY protocol, and a set of concurrent clients issuing a
// deterministic mix of entitled and unentitled queries — measuring query
// latency and throughput, and checking α-denial correctness at scale
// (every entitled query verifies, every unentitled query is denied).
type QueryConfig struct {
	// Prefixes is the sealed table size (default 256).
	Prefixes int
	// Providers is how many providers announce each prefix (default 3).
	Providers int
	// Clients is the number of concurrent query clients (default 8).
	Clients int
	// QueriesPerClient is each client's query count (default 100).
	QueriesPerClient int
	// Shards is the prover engine's shard count (default 8).
	Shards int
	// MaxLen is the committed bit-vector length K (default 16).
	MaxLen int
	// Seed drives each client's query mix; equal seeds replay identical
	// query sequences and outcome counts.
	Seed int64
}

func (c *QueryConfig) fill() {
	if c.Prefixes < 1 {
		c.Prefixes = 256
	}
	if c.Providers < 1 {
		c.Providers = 3
	}
	if c.Clients < 1 {
		c.Clients = 8
	}
	if c.QueriesPerClient < 1 {
		c.QueriesPerClient = 100
	}
	if c.Shards < 1 {
		c.Shards = 8
	}
	if c.MaxLen < 2 {
		c.MaxLen = 16
	}
}

// QueryResult reports a full E13 run.
type QueryResult struct {
	Prefixes, Providers, Clients int
	// Queries is the total issued; Verified the granted-and-verified
	// count; Denied the α denials received.
	Queries, Verified, Denied int
	// WrongDenials counts entitled queries that were denied; WrongGrants
	// counts unentitled queries that were granted; VerifyFailures counts
	// granted views that failed verification. All three must be zero for
	// a correct plane.
	WrongDenials, WrongGrants, VerifyFailures int
	// Elapsed is the wall-clock span of the client phase; QPS the total
	// query throughput across all clients.
	Elapsed time.Duration
	QPS     float64
	// P50 and P99 are end-to-end per-query latency quantiles (sign, wire
	// round trip, and client-side verification included).
	P50, P99 time.Duration
	// ServerP50 and ServerP99 are the server's own answer-latency
	// quantiles from its obs histogram (decode→answer, no wire time);
	// the gap to P50/P99 is what the wire and client verification cost.
	ServerP50, ServerP99 time.Duration
	// ServerServed / ServerDenied are the server's own counters.
	ServerServed, ServerDenied uint64
	// CacheHits / CacheMisses are the server's response-cache counters: a
	// table of P prefixes queried Q times converges on Q−P·roles hits.
	CacheHits, CacheMisses uint64
}

// ASNs of the E13 cast. queryGhost's key is deliberately never
// registered: its queries exercise the unauthenticated-principal denial.
const (
	queryProver   = aspath.ASN(64500)
	queryProvider = aspath.ASN(64601) // + j for provider j
	queryPromisee = aspath.ASN(64701)
	queryOutsider = aspath.ASN(64801)
	queryGhost    = aspath.ASN(64901)
)

// RunQuery executes one disclosure-query run, bounded by ctx
// (cancellation observed between queries).
func RunQuery(ctx context.Context, cfg QueryConfig) (*QueryResult, error) {
	cfg.fill()
	reg := sigs.NewRegistry()
	signers := make(map[aspath.ASN]sigs.Signer)
	newSigner := func(asn aspath.ASN, register bool) error {
		s, err := sigs.GenerateEd25519()
		if err != nil {
			return err
		}
		signers[asn] = s
		if register {
			reg.Register(asn, s.Public())
		}
		return nil
	}
	cast := []aspath.ASN{queryProver, queryPromisee, queryOutsider}
	for j := 0; j < cfg.Providers; j++ {
		cast = append(cast, queryProvider+aspath.ASN(j))
	}
	for _, asn := range cast {
		if err := newSigner(asn, true); err != nil {
			return nil, err
		}
	}
	if err := newSigner(queryGhost, false); err != nil {
		return nil, err
	}

	// Build and seal the table: Providers announcements per prefix with
	// deterministic, distinct path lengths.
	eng, err := engine.New(engine.Config{
		ASN: queryProver, Signer: signers[queryProver], Registry: reg,
		Shards: cfg.Shards, MaxLen: cfg.MaxLen,
	})
	if err != nil {
		return nil, err
	}
	eng.BeginEpoch(1)
	uni := trace.Universe(cfg.Prefixes)
	anns := make([][]core.Announcement, cfg.Prefixes)
	var flat []core.Announcement
	for i, pfx := range uni {
		anns[i] = make([]core.Announcement, cfg.Providers)
		for j := 0; j < cfg.Providers; j++ {
			prov := queryProvider + aspath.ASN(j)
			length := 1 + (i+j)%cfg.MaxLen
			asns := make([]aspath.ASN, length)
			asns[0] = prov
			for k := 1; k < length; k++ {
				asns[k] = aspath.ASN(65000 + k)
			}
			a, err := core.NewAnnouncement(signers[prov], prov, queryProver, 1, route.Route{
				Prefix:  pfx,
				Path:    aspath.New(asns...),
				NextHop: netip.AddrFrom4([4]byte{192, 0, 2, 1}),
			})
			if err != nil {
				return nil, err
			}
			anns[i][j] = a
			flat = append(flat, a)
		}
	}
	if _, err := eng.AcceptAll(flat, cfg.Shards); err != nil {
		return nil, err
	}
	if _, err := eng.SealEpoch(); err != nil {
		return nil, err
	}

	kb, err := signers[queryProver].Public().Marshal()
	if err != nil {
		return nil, err
	}
	obsReg := obs.NewRegistry()
	srv, err := discplane.NewServer(discplane.Config{
		ASN: queryProver, Engine: eng, Registry: reg,
		IsPromisee: func(a aspath.ASN) bool { return a == queryPromisee },
		Key:        kb,
		Obs:        obsReg,
	})
	if err != nil {
		return nil, err
	}

	// The client phase: each client owns one connection (its own
	// responder goroutine on the server side, as a listener would accept)
	// and issues its deterministic query mix.
	type clientTally struct {
		verified, denied                          int
		wrongDenials, wrongGrants, verifyFailures int
		lats                                      []time.Duration
		err                                       error
	}
	tallies := make([]clientTally, cfg.Clients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < cfg.Clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			tally := &tallies[c]
			client, server := netx.Pipe()
			defer client.Close()
			go func() {
				defer server.Close()
				for srv.Respond(server) == nil {
				}
			}()
			rng := rand.New(rand.NewSource(cfg.Seed + int64(c)*7919))
			for i := 0; i < cfg.QueriesPerClient; i++ {
				if err := ctx.Err(); err != nil {
					tally.err = err
					return
				}
				pi := rng.Intn(cfg.Prefixes)
				pfx := uni[pi]
				begin := time.Now()
				var verr error
				entitled := true
				switch rng.Intn(5) {
				case 0: // entitled provider
					j := rng.Intn(cfg.Providers)
					prov := queryProvider + aspath.ASN(j)
					var v *discplane.View
					if v, verr = fetchAs(client, signers[prov], prov, discplane.RoleProvider, pfx); verr == nil {
						pv := &engine.ProviderView{Sealed: v.Sealed, Position: int(v.Position), Opening: *v.Opening}
						verr = engine.VerifyProviderView(reg, pv, anns[pi][j])
					}
				case 1: // entitled promisee
					var v *discplane.View
					if v, verr = fetchAs(client, signers[queryPromisee], queryPromisee, discplane.RolePromisee, pfx); verr == nil {
						mv := &engine.PromiseeView{Sealed: v.Sealed, Openings: v.Openings, Winner: v.Winner, Export: *v.Export}
						verr = engine.VerifyPromiseeView(reg, mv)
					}
				case 2: // entitled observer (anonymous)
					var v *discplane.View
					if v, verr = fetchAs(client, nil, 0, discplane.RoleObserver, pfx); verr == nil {
						verr = v.Sealed.Verify(reg)
					}
				case 3: // unentitled: outsider claiming provider
					entitled = false
					_, verr = fetchAs(client, signers[queryOutsider], queryOutsider, discplane.RoleProvider, pfx)
				case 4: // unentitled: unregistered key claiming promisee
					entitled = false
					_, verr = fetchAs(client, signers[queryGhost], queryGhost, discplane.RolePromisee, pfx)
				}
				tally.lats = append(tally.lats, time.Since(begin))
				switch {
				case entitled && verr == nil:
					tally.verified++
				case entitled && errors.Is(verr, discplane.ErrAccessDenied):
					tally.wrongDenials++
				case entitled:
					tally.verifyFailures++
				case errors.Is(verr, discplane.ErrAccessDenied):
					tally.denied++
				case verr == nil:
					tally.wrongGrants++
				default:
					tally.err = fmt.Errorf("netsim: unentitled query failed oddly: %w", verr)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)

	cs := srv.CacheStats()
	res := &QueryResult{
		Prefixes: cfg.Prefixes, Providers: cfg.Providers, Clients: cfg.Clients,
		Elapsed:      elapsed,
		ServerServed: srv.Served(), ServerDenied: srv.Denied(),
		CacheHits: cs.Hits, CacheMisses: cs.Misses,
	}
	if q, ok := obsReg.Quantile("pvr_disc_latency_seconds", 0.50); ok {
		res.ServerP50 = time.Duration(q * float64(time.Second))
	}
	if q, ok := obsReg.Quantile("pvr_disc_latency_seconds", 0.99); ok {
		res.ServerP99 = time.Duration(q * float64(time.Second))
	}
	var lats []time.Duration
	for c := range tallies {
		t := &tallies[c]
		if t.err != nil {
			return nil, t.err
		}
		res.Verified += t.verified
		res.Denied += t.denied
		res.WrongDenials += t.wrongDenials
		res.WrongGrants += t.wrongGrants
		res.VerifyFailures += t.verifyFailures
		lats = append(lats, t.lats...)
	}
	res.Queries = len(lats)
	if n := len(lats); n > 0 {
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		res.P50, res.P99 = lats[n/2], lats[(n*99)/100]
		res.QPS = float64(n) / elapsed.Seconds()
	}
	return res, nil
}

// fetchAs signs and runs one query round trip as the given principal
// (signer nil for an anonymous observer).
func fetchAs(c discplane.FrameConn, signer sigs.Signer, asn aspath.ASN, role discplane.Role, pfx prefix.Prefix) (*discplane.View, error) {
	q := &discplane.Query{Requester: asn, Prover: queryProver, Role: role, Epoch: 1, Prefix: pfx}
	if signer != nil {
		if err := q.Sign(signer); err != nil {
			return nil, err
		}
	}
	return discplane.Fetch(c, q)
}
