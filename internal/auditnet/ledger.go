package auditnet

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"pvr/internal/aspath"
	"pvr/internal/gossip"
	"pvr/internal/netx"
	"pvr/internal/store"
)

// Ledger is the persistent append-only evidence log: every confirmed
// equivocation, encoded with the same explicit binary layout the wire
// uses, appended to a group-commit write-ahead log (one fsync covers
// every record that queued behind it). Nothing in the ledger is trusted
// on read — OpenLedger returns the raw records and the Auditor
// re-verifies every signature and re-runs the judge during replay, so a
// tampered ledger fails loudly instead of minting convictions.
type Ledger struct {
	log  *store.Log
	path string

	mu  sync.Mutex
	met *auditMetrics // detached handles until an Auditor instruments us
}

// recConflict is the ledger's one record type: an evidence record.
const recConflict uint8 = 0x02

// LedgerRecord is one replayed evidence entry.
type LedgerRecord struct {
	// Accuser is the AS that recorded the evidence (not itself verified —
	// equivocation evidence convicts on the accused's own signatures).
	Accuser aspath.ASN
	// Conflict is the equivocation evidence.
	Conflict *gossip.Conflict
}

// ErrLedgerCorrupt is wrapped by replay failures.
var ErrLedgerCorrupt = errors.New("auditnet: ledger corrupt")

// OpenLedger opens (creating if needed) the ledger rooted at path — a
// directory of WAL segments — and replays its records. A torn final
// record (the crash-during-append case) is dropped; any other malformed
// framing fails with ErrLedgerCorrupt. Record *contents* are not
// verified here; the Auditor does that, with keys, during its replay.
// Anything but a directory at path is an error, and is left untouched.
func OpenLedger(path string) (*Ledger, []LedgerRecord, error) {
	return OpenLedgerAt(path, store.Options{})
}

// OpenLedgerAt is OpenLedger with explicit WAL options (group-commit
// cadence, metrics).
func OpenLedgerAt(path string, opt store.Options) (*Ledger, []LedgerRecord, error) {
	b, err := store.NewFileBackend(path)
	if err != nil {
		return nil, nil, fmt.Errorf("auditnet: open ledger: %w", err)
	}
	return openLedger(b, opt, path)
}

// OpenLedgerBackend opens the ledger on an arbitrary store backend (a
// Participant's shared durable store, a netsim Mem, a fault injector).
func OpenLedgerBackend(b store.Backend, opt store.Options) (*Ledger, []LedgerRecord, error) {
	return openLedger(b, opt, "")
}

func openLedger(b store.Backend, opt store.Options, path string) (*Ledger, []LedgerRecord, error) {
	log, rec, err := store.OpenLog(b, opt)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: %v", ErrLedgerCorrupt, err)
	}
	var recs []LedgerRecord
	for _, r := range rec.Records {
		lr, err := decodeLedgerRecord(r)
		if err != nil {
			log.Close()
			return nil, nil, err
		}
		recs = append(recs, lr)
	}
	return &Ledger{log: log, path: path}, recs, nil
}

func decodeLedgerRecord(r store.Record) (LedgerRecord, error) {
	if r.Type != recConflict {
		return LedgerRecord{}, fmt.Errorf("%w: unknown record type %#x", ErrLedgerCorrupt, r.Type)
	}
	pr := &netx.PayloadReader{B: r.Data}
	accuser, err := pr.U32()
	if err != nil {
		return LedgerRecord{}, fmt.Errorf("%w: conflict record: %v", ErrLedgerCorrupt, err)
	}
	c, err := readConflict(pr)
	if err == nil {
		err = pr.Done()
	}
	if err != nil {
		return LedgerRecord{}, fmt.Errorf("%w: conflict record: %v", ErrLedgerCorrupt, err)
	}
	return LedgerRecord{Accuser: aspath.ASN(accuser), Conflict: c}, nil
}

// AppendConflict durably appends one evidence record: it returns once
// the record — and every record that shared its group commit — has been
// fsynced.
func (l *Ledger) AppendConflict(accuser aspath.ASN, c *gossip.Conflict) error {
	payload := netx.AppendU32(nil, uint32(accuser))
	payload = append(payload, EncodeConflict(c)...)
	t0 := time.Now()
	if err := l.log.Append(recConflict, payload); err != nil {
		if errors.Is(err, store.ErrClosed) {
			return fmt.Errorf("auditnet: ledger closed")
		}
		return fmt.Errorf("auditnet: ledger append: %w", err)
	}
	l.mu.Lock()
	met := l.met
	l.mu.Unlock()
	if met != nil {
		met.ledgerApps.Inc()
		met.fsyncSec.ObserveSince(t0)
	}
	return nil
}

// instrument points the ledger's append accounting at an auditor's
// metric set. Called by auditnet.New.
func (l *Ledger) instrument(m *auditMetrics) {
	l.mu.Lock()
	l.met = m
	l.mu.Unlock()
}

// Log exposes the underlying write-ahead log (for stats and tests).
func (l *Ledger) Log() *store.Log { return l.log }

// Path returns the backing directory ("" when opened on a backend).
func (l *Ledger) Path() string { return l.path }

// Close flushes pending appends and closes the log.
func (l *Ledger) Close() error { return l.log.Close() }
