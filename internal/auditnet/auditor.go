package auditnet

import (
	"fmt"
	"sort"
	"sync"

	"pvr/internal/aspath"
	"pvr/internal/evidence"
	"pvr/internal/gossip"
	"pvr/internal/obs"
	"pvr/internal/sigs"
)

// Config parameterizes an Auditor.
type Config struct {
	// ASN is the local AS, recorded as the accuser on evidence it files.
	ASN aspath.ASN
	// Registry resolves origin keys for statement and evidence verification.
	Registry sigs.Verifier
	// Ledger, when non-nil, persists confirmed evidence. Records already in
	// the ledger are replayed — and re-verified — by New.
	Ledger *Ledger
	// Replay holds the records OpenLedger returned for Ledger; New verifies
	// and re-judges each one to rebuild the conviction set.
	Replay []LedgerRecord
	// Obs, when non-nil, exports the auditor's metric families (round
	// counts and latency, bytes reconciled, ledger fsync latency, store
	// and conviction gauges) into the given registry.
	Obs *obs.Registry
	// Tracer, when non-nil, receives SealGossiped and ConvictionRecorded
	// lifecycle events.
	Tracer *obs.Tracer
}

// Conviction is one entry of the convicted-AS set: the judge upheld
// equivocation evidence against this origin.
type Conviction struct {
	ASN aspath.ASN
	// Topic is the gossip topic the origin equivocated on.
	Topic string
	// Detail is the judge's explanation.
	Detail string
}

// Auditor is one node of the audit network: an epoch-indexed statement
// store, the anti-entropy exchange endpoints, and the conviction service
// that runs confirmed conflicts through evidence.Judge and maintains the
// convicted-AS set. Safe for concurrent use.
type Auditor struct {
	asn    aspath.ASN
	reg    sigs.Verifier
	store  *Store
	ledger *Ledger
	met    *auditMetrics
	tr     *obs.Tracer

	mu        sync.RWMutex
	convicted map[aspath.ASN]Conviction
}

// New builds an auditor, replaying (and re-verifying) any ledger records
// from cfg.Replay. A replayed record that fails verification or judging
// aborts construction: a ledger that does not reconstruct is evidence of
// tampering, not state to be trusted.
func New(cfg Config) (*Auditor, error) {
	if cfg.Registry == nil {
		return nil, fmt.Errorf("auditnet: Registry is required")
	}
	a := &Auditor{
		asn:       cfg.ASN,
		reg:       cfg.Registry,
		store:     NewStore(cfg.Registry),
		ledger:    cfg.Ledger,
		met:       newAuditMetrics(cfg.Obs),
		tr:        cfg.Tracer,
		convicted: make(map[aspath.ASN]Conviction),
	}
	if cfg.Ledger != nil {
		cfg.Ledger.instrument(a.met)
	}
	if cfg.Obs != nil {
		a.registerGauges(cfg.Obs)
	}
	for i, rec := range cfg.Replay {
		if _, err := a.handleConflict(rec.Conflict, obs.TraceContext{}, false); err != nil {
			return nil, fmt.Errorf("auditnet: ledger record %d does not verify on replay: %w", i, err)
		}
	}
	return a, nil
}

// ASN returns the local AS.
func (a *Auditor) ASN() aspath.ASN { return a.asn }

// Store exposes the statement store (read-mostly: experiment drivers
// report its size).
func (a *Auditor) Store() *Store { return a.store }

// AddRecord ingests a locally produced, gossiped or out-of-band statement
// record — a shard seal fetched through the disclosure query plane, or one
// carried in a BGP update's attachments. A detected equivocation is routed
// through the conviction service and the returned conflict is non-nil:
// judged, convicted and ledgered by the time AddRecord returns.
func (a *Auditor) AddRecord(rec Record) (added bool, conflict *gossip.Conflict, err error) {
	added, c, err := a.store.AddRecord(rec)
	if added {
		a.tr.Record(obs.Event{
			Kind: obs.EvSealGossiped, Epoch: rec.Epoch,
			AS: uint32(rec.S.Origin), Note: rec.S.Topic,
		}.SetTrace(rec.Trace))
	}
	if err != nil || c == nil {
		return added, c, err
	}
	// A conflict detected here means rec contradicted a stored statement:
	// convict under rec's trace, falling back to the stored side's.
	tc := rec.Trace
	if tc.IsZero() {
		tc = a.store.TraceOf(c.Origin, rec.Epoch, c.Topic)
	}
	if _, herr := a.HandleConflict(c, tc); herr != nil {
		return added, c, herr
	}
	return added, c, nil
}

// HandleConflict runs received (or locally detected) equivocation evidence
// through the conviction service: verify both signatures from scratch,
// dedupe, persist to the ledger, judge, and update the convicted set.
// Returns true when the evidence was new. tc is the distributed trace
// context the evidence travels with; the conviction event inherits it (a
// zero tc falls back to the stored statement's), so a fleet collector can
// stitch the conviction back to the announcement that started the chain.
func (a *Auditor) HandleConflict(c *gossip.Conflict, tc obs.TraceContext) (bool, error) {
	return a.handleConflict(c, tc, true)
}

func (a *Auditor) handleConflict(c *gossip.Conflict, tc obs.TraceContext, persist bool) (bool, error) {
	if a.store.HasConflict(ConflictKey(c)) {
		return false, nil
	}
	if err := c.Verify(a.reg); err != nil {
		return false, fmt.Errorf("auditnet: reject evidence against %s: %w", c.Origin, err)
	}
	ev := &evidence.Evidence{
		Kind:     evidence.KindEquivocation,
		Accused:  c.Origin,
		Accuser:  a.asn,
		Conflict: c,
	}
	verdict, detail, err := evidence.Judge(a.reg, ev)
	if err != nil {
		return false, err
	}
	if verdict != evidence.Guilty {
		// Verify passed but the judge balked: structurally impossible for
		// equivocation evidence, but refuse to store rather than convict.
		return false, fmt.Errorf("auditnet: evidence against %s unproven: %s", c.Origin, detail)
	}
	if !a.store.AddConflict(c, tc) {
		return false, nil // raced with a concurrent ingest of the same evidence
	}
	if tc.IsZero() {
		tc = a.store.ConflictTrace(ConflictKey(c))
	}
	// Convict before attempting persistence: once the evidence is in the
	// store, a later retry dedupes out, so a transient ledger failure here
	// must not leave the equivocator unconvicted in memory.
	a.mu.Lock()
	_, already := a.convicted[c.Origin]
	if !already {
		a.convicted[c.Origin] = Conviction{ASN: c.Origin, Topic: c.Topic, Detail: detail}
	}
	a.mu.Unlock()
	if !already {
		a.met.convictions.Inc()
		a.tr.Record(obs.Event{
			Kind: obs.EvConvictionRecorded, AS: uint32(c.Origin), Note: c.Topic,
		}.SetTrace(tc))
	}
	if persist && a.ledger != nil {
		if err := a.ledger.AppendConflict(a.asn, c); err != nil {
			return true, fmt.Errorf("auditnet: ledger append: %w", err)
		}
	}
	return true, nil
}

// Convicted reports whether an AS is in the convicted set. Its method
// value satisfies the banlist engine.Pipeline consults.
func (a *Auditor) Convicted(asn aspath.ASN) bool {
	a.mu.RLock()
	defer a.mu.RUnlock()
	_, ok := a.convicted[asn]
	return ok
}

// Convictions returns the convicted set, ascending by ASN.
func (a *Auditor) Convictions() []Conviction {
	a.mu.RLock()
	defer a.mu.RUnlock()
	out := make([]Conviction, 0, len(a.convicted))
	for _, c := range a.convicted {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ASN < out[j].ASN })
	return out
}

// Evidence returns the stored equivocation evidence in insertion order.
func (a *Auditor) Evidence() []*gossip.Conflict { return a.store.Conflicts() }
