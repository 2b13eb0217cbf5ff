// Package auditnet is PVR's accountability dissemination subsystem: a
// gossip *network* that spreads commitment statements (engine shard seals,
// single-prefix commitments) and equivocation evidence between neighbors
// with anti-entropy set reconciliation, a persistent append-only evidence
// ledger, and a conviction service that turns confirmed conflicts into an
// enforced convicted-AS set.
//
// Where internal/gossip models one neighbor's in-memory pool and a
// full-state merge, auditnet is the deployable layer on top: each node
// keeps an epoch-indexed statement store with per-(origin, epoch) Merkle
// digests; an exchange ships digests first and statements only for the
// groups that actually differ, so a round between two synchronized nodes
// costs a constant ~150 bytes and a round after Δ new statements costs
// O(Δ), not O(store). The wire protocol (DIGEST / WANT / STATEMENTS /
// CONFLICT frames over internal/netx framing) runs identically over an
// in-process netx.Pipe in the simulator and over TCP in cmd/pvrd.
package auditnet

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"

	"pvr/internal/aspath"
	"pvr/internal/gossip"
	"pvr/internal/netx"
	"pvr/internal/obs"
)

// Frame types of the anti-entropy wire protocol, carried in netx.Frame.Type.
const (
	// FrameDigest carries store digests at one of three resolutions
	// (summary, per-origin, per-group); the first payload byte selects.
	FrameDigest uint8 = 0x41
	// FrameWant requests statements (by group, minus held content hashes)
	// and conflicts (by key).
	FrameWant uint8 = 0x42
	// FrameStatements ships the requested statement records.
	FrameStatements uint8 = 0x43
	// FrameConflict ships equivocation evidence records.
	FrameConflict uint8 = 0x44
)

// Digest payload kinds (first byte of a FrameDigest payload).
const (
	digestSummary uint8 = 0
	digestOrigins uint8 = 1
	digestGroups  uint8 = 2
)

// Hash is the reconciliation identity: content hashes, digests, and
// conflict keys are all 32-byte SHA-256 values.
type Hash = [sha256.Size]byte

// Record is the unit the network disseminates: a signed gossip statement
// filed under its commitment epoch. The epoch is reconciliation metadata
// (it selects the (origin, epoch) digest group), not part of the signed
// payload — the statement's own bytes already bind its epoch.
type Record struct {
	Epoch uint64
	S     gossip.Statement
	// Trace is the distributed trace context the statement travels under:
	// observability metadata, excluded from ContentHash and from the fixed
	// record encoding (it rides in a trailing frame extension instead), so
	// traced and untraced copies of one statement reconcile as one element.
	Trace obs.TraceContext
}

// ContentHash identifies a statement for set reconciliation: origin, topic,
// and payload, deliberately excluding the signature so two validly
// re-signed copies of the same utterance reconcile as one element.
func ContentHash(s *gossip.Statement) Hash {
	h := sha256.New()
	h.Write([]byte("pvr/auditnet/stmt/v1"))
	var u [4]byte
	binary.BigEndian.PutUint32(u[:], uint32(s.Origin))
	h.Write(u[:])
	writeLenPrefixed(h.Write, []byte(s.Topic))
	writeLenPrefixed(h.Write, s.Payload)
	var out Hash
	h.Sum(out[:0])
	return out
}

// ConflictKey identifies an equivocation for dissemination and dedupe:
// origin, topic, and the two payloads in normalized order, so the same
// conflict detected independently at two nodes (possibly with A and B
// swapped) reconciles as one piece of evidence.
func ConflictKey(c *gossip.Conflict) Hash {
	pa, pb := c.A.Payload, c.B.Payload
	if string(pa) > string(pb) {
		pa, pb = pb, pa
	}
	h := sha256.New()
	h.Write([]byte("pvr/auditnet/conflict/v1"))
	var u [4]byte
	binary.BigEndian.PutUint32(u[:], uint32(c.Origin))
	h.Write(u[:])
	writeLenPrefixed(h.Write, []byte(c.Topic))
	writeLenPrefixed(h.Write, pa)
	writeLenPrefixed(h.Write, pb)
	var out Hash
	h.Sum(out[:0])
	return out
}

func writeLenPrefixed(w func([]byte) (int, error), b []byte) {
	var u [4]byte
	binary.BigEndian.PutUint32(u[:], uint32(len(b)))
	w(u[:])
	w(b)
}

// ErrWire is wrapped by every decoding error. It aliases the shared
// netx payload sentinel, so the primitive readers' errors match it too.
var ErrWire = netx.ErrMalformedPayload

// readHash consumes one 32-byte reconciliation hash.
func readHash(r *netx.PayloadReader) (Hash, error) {
	var out Hash
	b, err := r.Take(len(out))
	if err != nil {
		return out, err
	}
	copy(out[:], b)
	return out, nil
}

// --- statement / record / conflict encodings ---

// AppendStatement appends the canonical wire encoding of a statement:
// origin, topic, payload, signature, each length-prefixed.
func AppendStatement(b []byte, s *gossip.Statement) []byte {
	b = netx.AppendU32(b, uint32(s.Origin))
	b = netx.AppendBytes(b, []byte(s.Topic))
	b = netx.AppendBytes(b, s.Payload)
	return netx.AppendBytes(b, s.Sig)
}

// EncodeStatement returns the wire encoding of one statement.
func EncodeStatement(s *gossip.Statement) []byte {
	return AppendStatement(nil, s)
}

func readStatement(r *netx.PayloadReader) (gossip.Statement, error) {
	var s gossip.Statement
	origin, err := r.U32()
	if err != nil {
		return s, err
	}
	topic, err := r.Bytes()
	if err != nil {
		return s, err
	}
	payload, err := r.Bytes()
	if err != nil {
		return s, err
	}
	sig, err := r.Bytes()
	if err != nil {
		return s, err
	}
	s.Origin = aspath.ASN(origin)
	s.Topic = string(topic)
	s.Payload = append([]byte(nil), payload...)
	s.Sig = append([]byte(nil), sig...)
	return s, nil
}

// DecodeStatement decodes an EncodeStatement encoding (exact length).
func DecodeStatement(b []byte) (gossip.Statement, error) {
	r := &netx.PayloadReader{B: b}
	s, err := readStatement(r)
	if err != nil {
		return s, err
	}
	return s, r.Done()
}

// AppendRecord appends a record: epoch then statement.
func AppendRecord(b []byte, rec *Record) []byte {
	b = netx.AppendU64(b, rec.Epoch)
	return AppendStatement(b, &rec.S)
}

func readRecord(r *netx.PayloadReader) (Record, error) {
	epoch, err := r.U64()
	if err != nil {
		return Record{}, err
	}
	s, err := readStatement(r)
	if err != nil {
		return Record{}, err
	}
	return Record{Epoch: epoch, S: s}, nil
}

// EncodeConflict returns the wire encoding of an equivocation record: the
// accusation header plus both conflicting signed statements.
func EncodeConflict(c *gossip.Conflict) []byte {
	b := netx.AppendU32(nil, uint32(c.Origin))
	b = netx.AppendBytes(b, []byte(c.Topic))
	b = AppendStatement(b, &c.A)
	return AppendStatement(b, &c.B)
}

func readConflict(r *netx.PayloadReader) (*gossip.Conflict, error) {
	origin, err := r.U32()
	if err != nil {
		return nil, err
	}
	topic, err := r.Bytes()
	if err != nil {
		return nil, err
	}
	a, err := readStatement(r)
	if err != nil {
		return nil, err
	}
	bst, err := readStatement(r)
	if err != nil {
		return nil, err
	}
	return &gossip.Conflict{Origin: aspath.ASN(origin), Topic: string(topic), A: a, B: bst}, nil
}

// DecodeConflict decodes an EncodeConflict encoding (exact length).
func DecodeConflict(b []byte) (*gossip.Conflict, error) {
	r := &netx.PayloadReader{B: b}
	c, err := readConflict(r)
	if err != nil {
		return nil, err
	}
	return c, r.Done()
}

// --- reconciliation messages ---

// GroupKey addresses one digest group: every statement an origin made for
// one epoch.
type GroupKey struct {
	Origin aspath.ASN
	Epoch  uint64
}

// summaryMsg is the cheapest digest resolution: one hash over the whole
// store and one over the conflict set. Two synchronized nodes exchange
// only this and stop.
type summaryMsg struct {
	Store     Hash
	Conflicts Hash
	Groups    uint32
	NConfl    uint32
	// Trace is the context of the store's most recently ingested traced
	// record, carried as a trailing extension so even a digest-only round
	// links the exchange to the activity that triggered it.
	Trace obs.TraceContext
}

// The encode() methods below build their payloads in pooled buffers
// (netx.GetBuf): an exchange frame is sent exactly once and never
// referenced again, so xfer.send recycles it after the write.

func (m *summaryMsg) encode() []byte {
	b := append(netx.GetBuf(128), digestSummary)
	b = append(b, m.Store[:]...)
	b = append(b, m.Conflicts[:]...)
	b = netx.AppendU32(b, m.Groups)
	b = netx.AppendU32(b, m.NConfl)
	return netx.AppendTraceExt(b, m.Trace)
}

func decodeSummary(b []byte) (*summaryMsg, error) {
	r := &netx.PayloadReader{B: b}
	var m summaryMsg
	var err error
	if m.Store, err = readHash(r); err != nil {
		return nil, err
	}
	if m.Conflicts, err = readHash(r); err != nil {
		return nil, err
	}
	if m.Groups, err = r.U32(); err != nil {
		return nil, err
	}
	if m.NConfl, err = r.U32(); err != nil {
		return nil, err
	}
	if m.Trace, err = netx.ReadTraceExt(r); err != nil {
		return nil, err
	}
	return &m, r.Done()
}

// OriginDigest summarizes every group one origin has: a hash over the
// origin's sorted (epoch, group digest) pairs.
type OriginDigest struct {
	Origin aspath.ASN
	Digest Hash
	Groups uint32
}

// originsMsg is the second digest resolution: per-origin digests plus the
// full conflict key set (conflicts are rare; their keys are cheap).
type originsMsg struct {
	Origins      []OriginDigest
	ConflictKeys []Hash
}

func (m *originsMsg) encode() []byte {
	b := append(netx.GetBuf(9+40*len(m.Origins)+32*len(m.ConflictKeys)), digestOrigins)
	b = netx.AppendU32(b, uint32(len(m.Origins)))
	for _, o := range m.Origins {
		b = netx.AppendU32(b, uint32(o.Origin))
		b = append(b, o.Digest[:]...)
		b = netx.AppendU32(b, o.Groups)
	}
	b = netx.AppendU32(b, uint32(len(m.ConflictKeys)))
	for _, k := range m.ConflictKeys {
		b = append(b, k[:]...)
	}
	return b
}

func decodeOrigins(b []byte) (*originsMsg, error) {
	r := &netx.PayloadReader{B: b}
	n, err := r.Count(4 + sha256.Size + 4)
	if err != nil {
		return nil, err
	}
	m := &originsMsg{Origins: make([]OriginDigest, n)}
	for i := range m.Origins {
		o, err := r.U32()
		if err != nil {
			return nil, err
		}
		d, err := readHash(r)
		if err != nil {
			return nil, err
		}
		g, err := r.U32()
		if err != nil {
			return nil, err
		}
		m.Origins[i] = OriginDigest{Origin: aspath.ASN(o), Digest: d, Groups: g}
	}
	nk, err := r.Count(sha256.Size)
	if err != nil {
		return nil, err
	}
	m.ConflictKeys = make([]Hash, nk)
	for i := range m.ConflictKeys {
		if m.ConflictKeys[i], err = readHash(r); err != nil {
			return nil, err
		}
	}
	return m, r.Done()
}

// GroupDigest is the finest digest resolution: one (origin, epoch) group's
// Merkle root over its sorted statement content hashes.
type GroupDigest struct {
	Key    GroupKey
	Digest Hash
	Count  uint32
}

type groupsMsg struct {
	Groups []GroupDigest
}

func (m *groupsMsg) encode() []byte {
	b := append(netx.GetBuf(5+48*len(m.Groups)), digestGroups)
	b = netx.AppendU32(b, uint32(len(m.Groups)))
	for _, g := range m.Groups {
		b = netx.AppendU32(b, uint32(g.Key.Origin))
		b = netx.AppendU64(b, g.Key.Epoch)
		b = append(b, g.Digest[:]...)
		b = netx.AppendU32(b, g.Count)
	}
	return b
}

func decodeGroups(b []byte) (*groupsMsg, error) {
	r := &netx.PayloadReader{B: b}
	n, err := r.Count(4 + 8 + sha256.Size + 4)
	if err != nil {
		return nil, err
	}
	m := &groupsMsg{Groups: make([]GroupDigest, n)}
	for i := range m.Groups {
		o, err := r.U32()
		if err != nil {
			return nil, err
		}
		e, err := r.U64()
		if err != nil {
			return nil, err
		}
		d, err := readHash(r)
		if err != nil {
			return nil, err
		}
		c, err := r.U32()
		if err != nil {
			return nil, err
		}
		m.Groups[i] = GroupDigest{Key: GroupKey{Origin: aspath.ASN(o), Epoch: e}, Digest: d, Count: c}
	}
	return m, r.Done()
}

// GroupWant asks for one group's statements, minus the content hashes the
// asker already holds.
type GroupWant struct {
	Key  GroupKey
	Have []Hash
}

type wantMsg struct {
	Groups    []GroupWant
	Conflicts []Hash
}

func (m *wantMsg) encode() []byte {
	n := 8 + 32*len(m.Conflicts)
	for _, g := range m.Groups {
		n += 16 + 32*len(g.Have)
	}
	b := netx.AppendU32(netx.GetBuf(n), uint32(len(m.Groups)))
	for _, g := range m.Groups {
		b = netx.AppendU32(b, uint32(g.Key.Origin))
		b = netx.AppendU64(b, g.Key.Epoch)
		b = netx.AppendU32(b, uint32(len(g.Have)))
		for _, h := range g.Have {
			b = append(b, h[:]...)
		}
	}
	b = netx.AppendU32(b, uint32(len(m.Conflicts)))
	for _, k := range m.Conflicts {
		b = append(b, k[:]...)
	}
	return b
}

func decodeWant(b []byte) (*wantMsg, error) {
	r := &netx.PayloadReader{B: b}
	n, err := r.Count(4 + 8 + 4)
	if err != nil {
		return nil, err
	}
	m := &wantMsg{Groups: make([]GroupWant, n)}
	for i := range m.Groups {
		o, err := r.U32()
		if err != nil {
			return nil, err
		}
		e, err := r.U64()
		if err != nil {
			return nil, err
		}
		nh, err := r.Count(sha256.Size)
		if err != nil {
			return nil, err
		}
		have := make([]Hash, nh)
		for j := range have {
			if have[j], err = readHash(r); err != nil {
				return nil, err
			}
		}
		m.Groups[i] = GroupWant{Key: GroupKey{Origin: aspath.ASN(o), Epoch: e}, Have: have}
	}
	nk, err := r.Count(sha256.Size)
	if err != nil {
		return nil, err
	}
	m.Conflicts = make([]Hash, nk)
	for i := range m.Conflicts {
		if m.Conflicts[i], err = readHash(r); err != nil {
			return nil, err
		}
	}
	return m, r.Done()
}

type stmtsMsg struct {
	Records []Record
}

func (m *stmtsMsg) encode() []byte {
	n := 4
	for i := range m.Records {
		s := &m.Records[i].S
		n += 24 + len(s.Topic) + len(s.Payload) + len(s.Sig)
	}
	b := netx.AppendU32(netx.GetBuf(n), uint32(len(m.Records)))
	for i := range m.Records {
		b = AppendRecord(b, &m.Records[i])
	}
	traces := make([]obs.TraceContext, len(m.Records))
	for i := range m.Records {
		traces[i] = m.Records[i].Trace
	}
	return netx.AppendTraceListExt(b, traces)
}

func decodeStmts(b []byte) (*stmtsMsg, error) {
	r := &netx.PayloadReader{B: b}
	n, err := r.Count(8 + 4 + 4 + 4 + 4)
	if err != nil {
		return nil, err
	}
	m := &stmtsMsg{Records: make([]Record, n)}
	for i := range m.Records {
		if m.Records[i], err = readRecord(r); err != nil {
			return nil, err
		}
	}
	traces, err := netx.ReadTraceListExt(r, n)
	if err != nil {
		return nil, err
	}
	for i := range traces {
		m.Records[i].Trace = traces[i]
	}
	return m, r.Done()
}

type conflMsg struct {
	Conflicts []*gossip.Conflict
	// Traces runs parallel to Conflicts (nil, or a zero entry, when a
	// conflict travels untraced); carried as a trailing extension.
	Traces []obs.TraceContext
}

// traceAt returns the i-th conflict's trace context (zero when absent).
func (m *conflMsg) traceAt(i int) obs.TraceContext {
	if i < len(m.Traces) {
		return m.Traces[i]
	}
	return obs.TraceContext{}
}

func (m *conflMsg) encode() []byte {
	b := netx.AppendU32(netx.GetBuf(256), uint32(len(m.Conflicts)))
	for _, c := range m.Conflicts {
		b = netx.AppendBytes(b, EncodeConflict(c))
	}
	return netx.AppendTraceListExt(b, m.Traces)
}

func decodeConfl(b []byte) (*conflMsg, error) {
	r := &netx.PayloadReader{B: b}
	n, err := r.Count(4)
	if err != nil {
		return nil, err
	}
	m := &conflMsg{Conflicts: make([]*gossip.Conflict, n)}
	for i := range m.Conflicts {
		cb, err := r.Bytes()
		if err != nil {
			return nil, err
		}
		if m.Conflicts[i], err = DecodeConflict(cb); err != nil {
			return nil, err
		}
	}
	if m.Traces, err = netx.ReadTraceListExt(r, n); err != nil {
		return nil, err
	}
	return m, r.Done()
}

// decodeDigest dispatches on the digest kind byte.
func decodeDigest(b []byte) (kind uint8, body []byte, err error) {
	if len(b) < 1 {
		return 0, nil, fmt.Errorf("%w: empty digest", ErrWire)
	}
	return b[0], b[1:], nil
}
