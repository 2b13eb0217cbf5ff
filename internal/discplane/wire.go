// Package discplane is PVR's disclosure query plane: the on-demand,
// α-gated verification surface of §2.2/§3.5–3.7 lifted onto the wire.
//
// Everywhere else in this repository a disclosure is constructed
// in-process and handed to the verifier as a Go value. That never
// exercises the paper's actual privacy boundary — the access policy α
// that says each neighbor class sees exactly the view it is entitled to,
// and nothing more. This package makes α a protocol artifact: a remote
// requester sends a signed DISCLOSE query for one (prefix, epoch), and
// the server answers with a VIEW containing exactly the material the
// requester's role grants — the §3.3 single-bit opening for a provider,
// the full vector plus provenance and export for the promisee, and only
// the sealed commitment with its inclusion proof for everyone else — or
// a typed DENY when α forbids the request.
//
// The protocol is a strict one-query/one-answer ping-pong over
// internal/netx framing, so the same bytes run over an in-process
// netx.Pipe in the simulator, the in-memory pvr transport in tests, and
// TCP in cmd/pvrd.
//
// # Sessions
//
// A connection is a session (Server.Serve). A gated query — provider or
// promisee role — is signed, and checked as it always was: signature,
// recovered nonce floor, nonce set. One that passes and is addressed to
// this prover binds the connection to its Requester, and later gated
// queries naming the bound principal may travel with an empty Sig: they
// are answered with no signature check, no nonce-set insert and no OnNonce
// call. An unsigned gated query on an unbound connection, or naming anyone
// else, gets the DenyAccess an unauthenticated query has always got; a
// signed one is verified as ever and rebinds; a signed one that fails to
// authenticate is denied and ends the session. One exchange on a
// connection of its own (Respond) is a session of length one. Ring-signed
// anonymous queries bind nothing and ride no binding; a requester who
// wants them unlinkable sends each on a connection of its own.
//
// This asks no more trust than signing every query did. What a signature
// per query bought was that nobody could put a query of their own on
// somebody else's connection. The plane is not encrypted: whoever can
// write into an established connection can also read it, and so already
// sees every view served on it — α fails there with or without sessions,
// and confidentiality against the path is the transport's job. What the
// signature must still do, it does: a principal is bound only by proving
// itself on that very connection, with a query that is good at no other
// prover (it names this one — an unaddressed query is answered but binds
// nothing) and at no other time (the nonce set, and after a restart the
// recovered NonceFloor, refuse a captured first frame on a new
// connection).
package discplane

import (
	"bytes"
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"pvr/internal/aspath"
	"pvr/internal/commit"
	"pvr/internal/core"
	"pvr/internal/engine"
	"pvr/internal/merkle"
	"pvr/internal/netx"
	"pvr/internal/obs"
	"pvr/internal/prefix"
	"pvr/internal/privplane"
	"pvr/internal/ringsig"
	"pvr/internal/sigs"
	"pvr/internal/zkp"
)

// readTraceExt consumes every trailing extension, capturing an ExtTrace
// context into dst and skipping unknown tags — the forward-compatibility
// path for frames from newer peers.
func readTraceExt(r *netx.PayloadReader, dst *obs.TraceContext) error {
	return netx.ReadExts(r, func(tag uint8, body []byte) error {
		if tag != netx.ExtTrace {
			return nil
		}
		tc, err := obs.TraceContextFromWire(body)
		if err != nil {
			return err
		}
		*dst = tc
		return nil
	})
}

// appendTraceExt appends an ExtTrace block when tc is set.
func appendTraceExt(b []byte, tc obs.TraceContext) []byte {
	if tc.IsZero() {
		return b
	}
	return netx.AppendExt(b, netx.ExtTrace, tc.AppendWire(nil))
}

// Frame types of the disclosure query protocol, carried in
// netx.Frame.Type. The range is disjoint from the audit anti-entropy
// frames (0x41–0x44) so a connection wired to the wrong endpoint fails
// loudly instead of half-parsing.
const (
	// FrameDisclose carries one signed Query.
	FrameDisclose uint8 = 0x51
	// FrameView carries the granted View.
	FrameView uint8 = 0x52
	// FrameDeny carries a typed Denial.
	FrameDeny uint8 = 0x53
	// FrameDiscloseAnon carries one ring-signed AnonQuery: a provider
	// asking for its §3.3 opening without identifying itself beyond
	// membership in the prefix's declared provider set.
	FrameDiscloseAnon uint8 = 0x54
)

// Role is the requester's claimed relationship to the prover for the
// queried prefix — the α classes of §2.2.
type Role uint8

// Roles. The zero value is invalid so an uninitialized query cannot
// accidentally select a view.
const (
	// RoleObserver is any third party: entitled to the sealed commitment
	// and its inclusion proof only (public material — it gossips anyway).
	RoleObserver Role = 1
	// RoleProvider is a neighbor that provided an input route this epoch:
	// entitled to the §3.3 single-bit opening for its own route length.
	RoleProvider Role = 2
	// RolePromisee is the neighbor the promise was made to: entitled to
	// the full opened vector, the winning input, and the export statement.
	RolePromisee Role = 3
	// RoleAuditor is a third party asking for the zero-knowledge opening:
	// entitled to the sealed commitment plus the Pedersen commitment
	// vector and the Σ-protocol proof that it commits to a well-formed
	// monotone bit vector — "the promise holds", with no bit opened.
	// Served only when the prover runs a privacy plane (ZKBind engine);
	// anonymous like the observer role, since nothing released is secret.
	RoleAuditor Role = 4
)

// String names the role.
func (r Role) String() string {
	switch r {
	case RoleObserver:
		return "observer"
	case RoleProvider:
		return "provider"
	case RolePromisee:
		return "promisee"
	case RoleAuditor:
		return "auditor"
	}
	return fmt.Sprintf("role(%d)", uint8(r))
}

func (r Role) valid() bool { return r >= RoleObserver && r <= RoleAuditor }

// Field identifies one disclosable unit of a View for the per-role data
// minimization masks. The wire codec consults FieldsFor — not the view
// struct's contents — when encoding and decoding, so a server bug that
// populates an unentitled field cannot leak it: the bytes are simply
// never written. The contract tests assert byte-level equality between
// "fully populated then masked" and "only entitled fields" encodings for
// every (role, frame) pair.
type Field uint16

// View fields, in wire order.
const (
	// FieldSealed is the sealed commitment (MC + inclusion proof + seal):
	// public material, part of every view.
	FieldSealed Field = 1 << iota
	// FieldKey is the prover's marshaled public key.
	FieldKey
	// FieldExportC is the sealed-export commitment the shard leaf binds;
	// hiding, so every role may see it (the Merkle check needs it).
	FieldExportC
	// FieldZKDigest is the Pedersen-vector digest the shard leaf binds;
	// hiding, needed by every role's Merkle check.
	FieldZKDigest
	// FieldPosition and FieldOpening are the §3.3 single-bit opening.
	FieldPosition
	FieldOpening
	// FieldOpenings, FieldWinner, FieldExport, and FieldExportOpening are
	// the promisee's full view.
	FieldOpenings
	FieldWinner
	FieldExport
	FieldExportOpening
	// FieldZKVector is the Pedersen commitment vector plus the monotone
	// vector proof — the auditor's zero-knowledge opening.
	FieldZKVector
)

// fieldsBase is the material every granted view carries: the sealed
// commitment, the prover key, and the two hiding leaf extensions without
// which no role can reconstruct the leaf for the Merkle check.
const fieldsBase = FieldSealed | FieldKey | FieldExportC | FieldZKDigest

// FieldsFor is the data-minimization policy: exactly the fields role is
// entitled to, per §2.2's α. Everything else is masked at the codec.
func FieldsFor(role Role) Field {
	switch role {
	case RoleObserver:
		return fieldsBase
	case RoleProvider:
		return fieldsBase | FieldPosition | FieldOpening
	case RolePromisee:
		return fieldsBase | FieldOpenings | FieldWinner | FieldExport | FieldExportOpening
	case RoleAuditor:
		return fieldsBase | FieldZKVector
	}
	return 0
}

// Has reports whether f includes field.
func (f Field) Has(field Field) bool { return f&field != 0 }

// tagDisclose domain-separates query signatures from every other signed
// payload in the protocol.
const tagDisclose = "pvr/disclose/v1"

// NonceSize is the size of a query's anti-replay nonce.
const NonceSize = 16

// Sentinel errors. Denial.Is maps wire denials onto these, so callers
// match with errors.Is without inspecting codes.
var (
	// ErrAccessDenied reports a query refused by the access policy α: the
	// requester is not entitled to the view it asked for, or could not be
	// authenticated as the principal it claimed to be.
	ErrAccessDenied = errors.New("discplane: access denied under α")
	// ErrNotServed reports a query for a prefix or epoch the server does
	// not currently hold sealed state for.
	ErrNotServed = errors.New("discplane: prefix or epoch not served")
	// ErrBadQuery reports a structurally invalid query.
	ErrBadQuery = errors.New("discplane: malformed query")
	// ErrWire is wrapped by every decoding error; it aliases the shared
	// netx payload sentinel the primitive readers return.
	ErrWire = netx.ErrMalformedPayload
)

// Query is one DISCLOSE request: who is asking, in what claimed role, for
// which (prefix, epoch). Provider and promisee queries must be signed by
// the requester — α releases those views to a principal, not to whoever
// holds the TCP connection. Observer queries may be anonymous
// (Requester 0, no signature): the observer view is public material.
type Query struct {
	// Requester is the asking AS (0 for an anonymous observer).
	Requester aspath.ASN
	// Prover is the serving AS the query is addressed to. It is part of
	// the signed bytes: a server refuses gated queries addressed to
	// anyone else, so a captured query cannot be replayed against a
	// different prover. 0 leaves the binding unspecified (the requester
	// does not yet know the prover — e.g. a first trust-on-first-use
	// contact); servers accept it but the cross-prover defense is lost.
	Prover aspath.ASN
	// Role is the view requested under α.
	Role Role
	// Epoch selects the commitment epoch.
	Epoch uint64
	// Prefix selects the committed prefix.
	Prefix prefix.Prefix
	// Nonce makes the signed bytes unique per query. Servers remember
	// recently seen nonces and refuse duplicates of gated queries, so a
	// captured DISCLOSE cannot be replayed to pull fresher views of the
	// same (prefix, epoch) as windows advance (best-effort: the seen set
	// is bounded; see the Server docs).
	Nonce [NonceSize]byte
	// Sig is the requester's signature over SignedBytes.
	Sig []byte
	// Trace is the distributed trace context the query travels under:
	// observability metadata, deliberately excluded from SignedBytes (a
	// relay re-stamping the trace must not invalidate the signature) and
	// carried as a trailing frame extension old servers skip.
	Trace obs.TraceContext
}

// SignedBytes returns the canonical bytes the requester signs.
func (q *Query) SignedBytes() ([]byte, error) {
	pb, err := q.Prefix.MarshalBinary()
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	buf.WriteString(tagDisclose)
	var u8 [8]byte
	binary.BigEndian.PutUint32(u8[:4], uint32(q.Requester))
	buf.Write(u8[:4])
	binary.BigEndian.PutUint32(u8[:4], uint32(q.Prover))
	buf.Write(u8[:4])
	buf.WriteByte(uint8(q.Role))
	binary.BigEndian.PutUint64(u8[:], q.Epoch)
	buf.Write(u8[:])
	buf.WriteByte(byte(len(pb)))
	buf.Write(pb)
	buf.Write(q.Nonce[:])
	return buf.Bytes(), nil
}

// nonceClock issues the strictly increasing stamps embedded in gated
// query nonces. It starts at the wall clock so a restarted requester's
// stamps naturally exceed everything it issued before going down — the
// property a recovering server's NonceFloor relies on — and advances by
// max(now, last+1) so bursts within one nanosecond stay monotonic.
var nonceClock atomic.Uint64

func nextNonceStamp() uint64 {
	for {
		now := uint64(time.Now().UnixNano())
		last := nonceClock.Load()
		if now <= last {
			now = last + 1
		}
		if nonceClock.CompareAndSwap(last, now) {
			return now
		}
	}
}

// NonceStamp extracts the monotonic stamp from a gated query nonce (its
// first 8 bytes, big-endian). Servers persist the high-water mark of
// accepted stamps and, after a restart, refuse gated queries at or below
// the recovered floor — the durable half of replay defense that the
// in-memory seen-set cannot provide across a crash.
func NonceStamp(n [NonceSize]byte) uint64 { return binary.BigEndian.Uint64(n[:8]) }

// Sign draws a fresh nonce — a monotonic stamp in the first 8 bytes,
// random bytes after — and signs the query as the requester.
func (q *Query) Sign(signer sigs.Signer) error {
	if _, err := rand.Read(q.Nonce[:]); err != nil {
		return err
	}
	binary.BigEndian.PutUint64(q.Nonce[:8], nextNonceStamp())
	msg, err := q.SignedBytes()
	if err != nil {
		return err
	}
	q.Sig, err = signer.Sign(msg)
	return err
}

// Verify checks the requester's signature; the registry must hold the
// requester's key.
func (q *Query) Verify(ver sigs.Verifier) error {
	msg, err := q.SignedBytes()
	if err != nil {
		return err
	}
	return ver.Verify(q.Requester, msg, q.Sig)
}

// Encode returns the DISCLOSE frame payload.
func (q *Query) Encode() ([]byte, error) {
	pb, err := q.Prefix.MarshalBinary()
	if err != nil {
		return nil, err
	}
	// Encoded into a pooled buffer: the client sends a query exactly once
	// (SendPooled recycles it); other callers simply keep the buffer.
	b := netx.AppendU32(netx.GetBuf(64), uint32(q.Requester))
	b = netx.AppendU32(b, uint32(q.Prover))
	b = append(b, uint8(q.Role))
	b = netx.AppendU64(b, q.Epoch)
	b = netx.AppendBytes(b, pb)
	b = append(b, q.Nonce[:]...)
	b = netx.AppendBytes(b, q.Sig)
	return appendTraceExt(b, q.Trace), nil
}

// DecodeQuery decodes an Encode payload (exact length).
func DecodeQuery(b []byte) (*Query, error) {
	r := &netx.PayloadReader{B: b}
	var q Query
	req, err := r.U32()
	if err != nil {
		return nil, err
	}
	q.Requester = aspath.ASN(req)
	prover, err := r.U32()
	if err != nil {
		return nil, err
	}
	q.Prover = aspath.ASN(prover)
	role, err := r.U8()
	if err != nil {
		return nil, err
	}
	q.Role = Role(role)
	if q.Epoch, err = r.U64(); err != nil {
		return nil, err
	}
	pb, err := r.Bytes()
	if err != nil {
		return nil, err
	}
	if err := q.Prefix.UnmarshalBinary(pb); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrWire, err)
	}
	nb, err := r.Take(NonceSize)
	if err != nil {
		return nil, err
	}
	copy(q.Nonce[:], nb)
	sig, err := r.Bytes()
	if err != nil {
		return nil, err
	}
	if len(sig) > 0 {
		q.Sig = append([]byte(nil), sig...)
	}
	if err := readTraceExt(r, &q.Trace); err != nil {
		return nil, err
	}
	return &q, r.Done()
}

// tagDiscloseAnon domain-separates ring-signature messages of anonymous
// disclosure queries.
const tagDiscloseAnon = "pvr/disclose-anon/v1"

// maxWireRing bounds the ring size a peer can make the server build: ring
// verification costs one RSA exponentiation per member.
const maxWireRing = 128

// AnonQuery is one anonymous DISCLOSE request: a provider asks for the
// §3.3 single-bit opening at its own route length, authenticating as
// *some* member of Ring — a canonical subset of the prefix's declared
// provider set — via an RST ring signature instead of naming itself.
// The server learns "a provider with a route of length Position asked"
// and nothing more; the anonymity set is the ring (k = len(Ring)).
type AnonQuery struct {
	// Prover is the serving AS the query is addressed to; signed, so a
	// captured query cannot be replayed against a different prover.
	Prover aspath.ASN
	// Epoch and Prefix select the sealed commitment.
	Epoch  uint64
	Prefix prefix.Prefix
	// Position is the declared route length whose bit should open. The
	// engine refuses positions no accepted input declared, so an
	// anonymous asker cannot probe arbitrary bits.
	Position uint32
	// Ring is the claimed anonymity set, in canonical order (sorted
	// ascending, no duplicates). Every member must be a declared provider
	// for (Prefix, Epoch) at the server.
	Ring []aspath.ASN
	// Nonce makes the ring-signed bytes unique per query; the server's
	// replay set refuses duplicates exactly as for signed queries.
	Nonce [NonceSize]byte
	// Sig is the flattened ring signature (privplane.MarshalRingSig) over
	// SignedBytes by some ring member.
	Sig []byte
	// Trace is observability metadata, excluded from SignedBytes and
	// carried as a trailing frame extension.
	Trace obs.TraceContext
}

// SignedBytes returns the canonical bytes the ring signature covers. The
// ring itself is inside (besides being bound by the ring-keyed Feistel),
// so the signed statement names its own anonymity set.
func (q *AnonQuery) SignedBytes() ([]byte, error) {
	pb, err := q.Prefix.MarshalBinary()
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	buf.WriteString(tagDiscloseAnon)
	var u8 [8]byte
	binary.BigEndian.PutUint32(u8[:4], uint32(q.Prover))
	buf.Write(u8[:4])
	binary.BigEndian.PutUint64(u8[:], q.Epoch)
	buf.Write(u8[:])
	buf.WriteByte(byte(len(pb)))
	buf.Write(pb)
	binary.BigEndian.PutUint32(u8[:4], q.Position)
	buf.Write(u8[:4])
	binary.BigEndian.PutUint32(u8[:4], uint32(len(q.Ring)))
	buf.Write(u8[:4])
	for _, m := range q.Ring {
		binary.BigEndian.PutUint32(u8[:4], uint32(m))
		buf.Write(u8[:4])
	}
	buf.Write(q.Nonce[:])
	return buf.Bytes(), nil
}

// Sign canonicalizes the ring, draws a fresh nonce, and ring-signs the
// query as key's holder through the privacy plane.
func (q *AnonQuery) Sign(p *privplane.Plane, key *privplane.RingKey) error {
	ring, err := privplane.CanonicalRing(q.Ring)
	if err != nil {
		return err
	}
	q.Ring = ring
	if _, err := rand.Read(q.Nonce[:]); err != nil {
		return err
	}
	msg, err := q.SignedBytes()
	if err != nil {
		return err
	}
	sig, err := p.Sign(q.Ring, key, msg)
	if err != nil {
		return err
	}
	q.Sig = privplane.MarshalRingSig(sig)
	return nil
}

// ringSig splits the wire signature back into components for the ring.
func (q *AnonQuery) ringSig() (*ringsig.Signature, error) {
	return privplane.UnmarshalRingSig(q.Sig, len(q.Ring))
}

// Encode returns the DISCLOSE-ANON frame payload (pooled buffer; the
// client sends it exactly once).
func (q *AnonQuery) Encode() ([]byte, error) {
	pb, err := q.Prefix.MarshalBinary()
	if err != nil {
		return nil, err
	}
	b := netx.AppendU32(netx.GetBuf(256), uint32(q.Prover))
	b = netx.AppendU64(b, q.Epoch)
	b = netx.AppendBytes(b, pb)
	b = netx.AppendU32(b, q.Position)
	b = netx.AppendU32(b, uint32(len(q.Ring)))
	for _, m := range q.Ring {
		b = netx.AppendU32(b, uint32(m))
	}
	b = append(b, q.Nonce[:]...)
	b = netx.AppendBytes(b, q.Sig)
	return appendTraceExt(b, q.Trace), nil
}

// DecodeAnonQuery decodes an Encode payload (exact length). Structure
// only: ring membership and the signature are the server's checks.
func DecodeAnonQuery(b []byte) (*AnonQuery, error) {
	r := &netx.PayloadReader{B: b}
	var q AnonQuery
	prover, err := r.U32()
	if err != nil {
		return nil, err
	}
	q.Prover = aspath.ASN(prover)
	if q.Epoch, err = r.U64(); err != nil {
		return nil, err
	}
	pb, err := r.Bytes()
	if err != nil {
		return nil, err
	}
	if err := q.Prefix.UnmarshalBinary(pb); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrWire, err)
	}
	if q.Position, err = r.U32(); err != nil {
		return nil, err
	}
	n, err := r.Count(4)
	if err != nil {
		return nil, err
	}
	if n < 2 || n > maxWireRing {
		return nil, fmt.Errorf("%w: ring size %d outside [2, %d]", ErrWire, n, maxWireRing)
	}
	q.Ring = make([]aspath.ASN, n)
	for i := range q.Ring {
		m, err := r.U32()
		if err != nil {
			return nil, err
		}
		q.Ring[i] = aspath.ASN(m)
		if i > 0 && q.Ring[i] <= q.Ring[i-1] {
			return nil, fmt.Errorf("%w: ring not in canonical order", ErrWire)
		}
	}
	nb, err := r.Take(NonceSize)
	if err != nil {
		return nil, err
	}
	copy(q.Nonce[:], nb)
	sig, err := r.Bytes()
	if err != nil {
		return nil, err
	}
	if len(sig) > 0 {
		q.Sig = append([]byte(nil), sig...)
	}
	if err := readTraceExt(r, &q.Trace); err != nil {
		return nil, err
	}
	return &q, r.Done()
}

// DenyCode classifies a denial for the client's error taxonomy.
type DenyCode uint8

// Denial codes.
const (
	// DenyAccess: α refuses the requester this view.
	DenyAccess DenyCode = 1
	// DenyNotFound: the prefix or epoch is not in the served sealed state.
	DenyNotFound DenyCode = 2
	// DenyBadQuery: the query was structurally invalid.
	DenyBadQuery DenyCode = 3
)

// maxDetail bounds the denial detail string a peer can make us allocate.
const maxDetail = 4096

// Denial is one DENY answer. It satisfies error, and errors.Is maps it
// onto the package sentinels by code.
type Denial struct {
	Code   DenyCode
	Detail string
	// Trace echoes the denied query's trace context (extension-carried),
	// so a denied fetch still closes its span in the requester's ring.
	Trace obs.TraceContext
}

// Error implements error.
func (d *Denial) Error() string {
	return fmt.Sprintf("discplane: denied (%s): %s", d.codeString(), d.Detail)
}

func (d *Denial) codeString() string {
	switch d.Code {
	case DenyAccess:
		return "access"
	case DenyNotFound:
		return "not-found"
	case DenyBadQuery:
		return "bad-query"
	}
	return fmt.Sprintf("code-%d", uint8(d.Code))
}

// Is maps denial codes onto the package sentinels for errors.Is.
func (d *Denial) Is(target error) bool {
	switch d.Code {
	case DenyAccess:
		return target == ErrAccessDenied
	case DenyNotFound:
		return target == ErrNotServed
	case DenyBadQuery:
		return target == ErrBadQuery
	}
	return false
}

// Encode returns the DENY frame payload.
func (d *Denial) Encode() []byte {
	b := append(netx.GetBuf(64), uint8(d.Code))
	b = netx.AppendBytes(b, []byte(d.Detail))
	return appendTraceExt(b, d.Trace)
}

// DecodeDenial decodes an Encode payload (exact length).
func DecodeDenial(b []byte) (*Denial, error) {
	r := &netx.PayloadReader{B: b}
	code, err := r.U8()
	if err != nil {
		return nil, err
	}
	detail, err := r.Bytes()
	if err != nil {
		return nil, err
	}
	if len(detail) > maxDetail {
		return nil, fmt.Errorf("%w: oversized denial detail", ErrWire)
	}
	d := &Denial{Code: DenyCode(code), Detail: string(detail)}
	if err := readTraceExt(r, &d.Trace); err != nil {
		return nil, err
	}
	return d, r.Done()
}

// View is one VIEW answer: always the sealed commitment (with inclusion
// proof and shard seal), plus exactly the extra material the granted role
// is entitled to. Key carries the prover's public key bytes so clients
// with a private trust-on-first-use registry can verify before pinning.
type View struct {
	// Role is the role the server granted (echoes the query's).
	Role Role
	// Sealed authenticates the per-prefix commitment: MC + proof + seal.
	Sealed *engine.SealedCommitment
	// Position and Opening are set for RoleProvider: the opened bit
	// b_{|r_i|} for the requester's own route length.
	Position uint32
	Opening  *commit.Opening
	// Openings, Winner, and Export are set for RolePromisee: the full
	// opened vector, the winning input (nil when nothing was exported),
	// and the export statement. When the serving engine uses sealed
	// exports the statement is unsigned and ExportOpening carries the
	// opening of the commitment the shard leaf binds instead — the seal
	// authenticates the export, not a per-prefix signature.
	Openings      []commit.Opening
	Winner        *core.Announcement
	Export        *core.ExportStatement
	ExportOpening *commit.Opening
	// ZKCommitments and ZKProof are set for RoleAuditor: the Pedersen
	// commitment vector the seal's leaf digests (Sealed.ZKDigest) and the
	// zero-knowledge proof that it commits to a well-formed monotone bit
	// vector. Verify with privplane.Plane.VerifyAuditorProof.
	ZKCommitments []zkp.Commitment
	ZKProof       *zkp.VectorProof
	// Key is the prover's marshaled public key (may be empty).
	Key []byte
	// Trace is the distributed trace context of the served seal — the
	// chain that produced the commitment being disclosed, NOT the
	// requester's query trace (views are cached across requesters, so the
	// payload must not vary per query). Extension-carried.
	Trace obs.TraceContext
}

// Encode returns the VIEW frame payload. Every field write is gated on
// the role's FieldsFor mask, never on what the struct happens to hold:
// populating an unentitled field (a server bug) yields the same bytes as
// never setting it. That makes data minimization a codec property the
// contract tests can pin byte-for-byte.
func (v *View) Encode() ([]byte, error) {
	if !v.Role.valid() {
		return nil, fmt.Errorf("discplane: encode view: invalid role %s", v.Role)
	}
	m := FieldsFor(v.Role)
	if v.Sealed == nil || v.Sealed.MC == nil || v.Sealed.Proof == nil || v.Sealed.Seal == nil {
		return nil, fmt.Errorf("discplane: encode view: incomplete sealed commitment")
	}
	mcb, err := v.Sealed.MC.SignedBytes()
	if err != nil {
		return nil, err
	}
	proofb, err := v.Sealed.Proof.MarshalBinary()
	if err != nil {
		return nil, err
	}
	sealb, err := v.Sealed.Seal.MarshalBinary()
	if err != nil {
		return nil, err
	}
	b := []byte{uint8(v.Role)}
	if m.Has(FieldKey) {
		b = netx.AppendBytes(b, v.Key)
	} else {
		b = netx.AppendBytes(b, nil)
	}
	b = netx.AppendBytes(b, mcb)
	b = netx.AppendBytes(b, proofb)
	b = netx.AppendBytes(b, sealb)
	// Hiding leaf extensions: the shard leaf appends the export commitment
	// and the ZK digest after the MC bytes, so every role's Merkle check
	// needs them.
	if m.Has(FieldExportC) && v.Sealed.HasExport {
		b = netx.AppendBytes(b, v.Sealed.ExportC[:])
	} else {
		b = netx.AppendBytes(b, nil)
	}
	if m.Has(FieldZKDigest) && v.Sealed.HasZK {
		b = netx.AppendBytes(b, v.Sealed.ZKDigest[:])
	} else {
		b = netx.AppendBytes(b, nil)
	}
	if m.Has(FieldPosition) || m.Has(FieldOpening) {
		if v.Opening == nil {
			return nil, fmt.Errorf("discplane: encode provider view: missing opening")
		}
		ob, err := v.Opening.MarshalBinary()
		if err != nil {
			return nil, err
		}
		b = netx.AppendU32(b, v.Position)
		b = netx.AppendBytes(b, ob)
	}
	if m.Has(FieldOpenings) {
		if v.Export == nil {
			return nil, fmt.Errorf("discplane: encode promisee view: missing export")
		}
		b = netx.AppendU32(b, uint32(len(v.Openings)))
		for i := range v.Openings {
			ob, err := v.Openings[i].MarshalBinary()
			if err != nil {
				return nil, err
			}
			b = netx.AppendBytes(b, ob)
		}
		if m.Has(FieldWinner) && v.Winner != nil {
			b = append(b, 1)
			if b, err = appendAnnouncement(b, v.Winner); err != nil {
				return nil, err
			}
		} else {
			b = append(b, 0)
		}
		if b, err = appendExport(b, v.Export); err != nil {
			return nil, err
		}
		if m.Has(FieldExportOpening) && v.ExportOpening != nil {
			ob, err := v.ExportOpening.MarshalBinary()
			if err != nil {
				return nil, err
			}
			b = netx.AppendBytes(b, ob)
		} else {
			b = netx.AppendBytes(b, nil)
		}
	}
	if m.Has(FieldZKVector) {
		if v.ZKProof == nil {
			return nil, fmt.Errorf("discplane: encode auditor view: missing vector proof")
		}
		b = netx.AppendBytes(b, zkp.MarshalCommitments(v.ZKCommitments))
		pb, err := v.ZKProof.MarshalBinary()
		if err != nil {
			return nil, err
		}
		b = netx.AppendBytes(b, pb)
	}
	// Sized exactly: the server keeps an encoding for as long as its window
	// lasts, and a buffer grown by doubling would keep up to as much again
	// unused behind each.
	return bytes.Clone(appendTraceExt(b, v.Trace)), nil
}

// DecodeView decodes an Encode payload (exact length), reconstructing the
// role-specific material under the same FieldsFor mask the encoder used —
// a frame structurally carrying fields its role is not entitled to does
// not parse. Decoding establishes structure only; the caller must still
// verify the view.
func DecodeView(b []byte) (*View, error) {
	r := &netx.PayloadReader{B: b}
	role, err := r.U8()
	if err != nil {
		return nil, err
	}
	v := &View{Role: Role(role)}
	if !v.Role.valid() {
		return nil, fmt.Errorf("%w: invalid role %d", ErrWire, role)
	}
	m := FieldsFor(v.Role)
	key, err := r.Bytes()
	if err != nil {
		return nil, err
	}
	if len(key) > 0 {
		v.Key = append([]byte(nil), key...)
	}
	mcb, err := r.Bytes()
	if err != nil {
		return nil, err
	}
	mc, err := core.ParseMinCommitmentBytes(mcb)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrWire, err)
	}
	proofb, err := r.Bytes()
	if err != nil {
		return nil, err
	}
	proof := new(merkle.BatchProof)
	if err := proof.UnmarshalBinary(proofb); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrWire, err)
	}
	sealb, err := r.Bytes()
	if err != nil {
		return nil, err
	}
	seal := new(engine.Seal)
	if err := seal.UnmarshalBinary(sealb); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrWire, err)
	}
	v.Sealed = &engine.SealedCommitment{MC: mc, Proof: proof, Seal: seal}
	ecb, err := r.Bytes()
	if err != nil {
		return nil, err
	}
	switch len(ecb) {
	case 0:
	case commit.Size:
		v.Sealed.HasExport = true
		copy(v.Sealed.ExportC[:], ecb)
	default:
		return nil, fmt.Errorf("%w: export commitment length %d", ErrWire, len(ecb))
	}
	zdb, err := r.Bytes()
	if err != nil {
		return nil, err
	}
	switch len(zdb) {
	case 0:
	case len(v.Sealed.ZKDigest):
		v.Sealed.HasZK = true
		copy(v.Sealed.ZKDigest[:], zdb)
	default:
		return nil, fmt.Errorf("%w: ZK digest length %d", ErrWire, len(zdb))
	}
	if m.Has(FieldPosition) || m.Has(FieldOpening) {
		if v.Position, err = r.U32(); err != nil {
			return nil, err
		}
		ob, err := r.Bytes()
		if err != nil {
			return nil, err
		}
		op := new(commit.Opening)
		if err := op.UnmarshalBinary(ob); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrWire, err)
		}
		v.Opening = op
	}
	if m.Has(FieldOpenings) {
		n, err := r.Count(4)
		if err != nil {
			return nil, err
		}
		if n > core.MaxVectorLen {
			return nil, fmt.Errorf("%w: %d openings exceed the vector bound", ErrWire, n)
		}
		v.Openings = make([]commit.Opening, n)
		for i := range v.Openings {
			ob, err := r.Bytes()
			if err != nil {
				return nil, err
			}
			if err := v.Openings[i].UnmarshalBinary(ob); err != nil {
				return nil, fmt.Errorf("%w: %v", ErrWire, err)
			}
		}
		hasWinner, err := r.U8()
		if err != nil {
			return nil, err
		}
		if hasWinner > 1 {
			return nil, fmt.Errorf("%w: winner flag %d", ErrWire, hasWinner)
		}
		if hasWinner == 1 {
			if v.Winner, err = readAnnouncement(r); err != nil {
				return nil, err
			}
		}
		if v.Export, err = readExport(r); err != nil {
			return nil, err
		}
		ob, err := r.Bytes()
		if err != nil {
			return nil, err
		}
		if len(ob) > 0 {
			op := new(commit.Opening)
			if err := op.UnmarshalBinary(ob); err != nil {
				return nil, fmt.Errorf("%w: %v", ErrWire, err)
			}
			v.ExportOpening = op
		}
	}
	if m.Has(FieldZKVector) {
		csb, err := r.Bytes()
		if err != nil {
			return nil, err
		}
		if v.ZKCommitments, err = zkp.UnmarshalCommitments(csb); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrWire, err)
		}
		pb, err := r.Bytes()
		if err != nil {
			return nil, err
		}
		vp := new(zkp.VectorProof)
		if err := vp.UnmarshalBinary(pb); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrWire, err)
		}
		v.ZKProof = vp
	}
	if err := readTraceExt(r, &v.Trace); err != nil {
		return nil, err
	}
	return v, r.Done()
}

// --- announcement / export encodings ---

func appendAnnouncement(b []byte, a *core.Announcement) ([]byte, error) {
	rb, err := a.Route.MarshalBinary()
	if err != nil {
		return nil, err
	}
	b = netx.AppendU64(b, a.Epoch)
	b = netx.AppendU32(b, uint32(a.Provider))
	b = netx.AppendU32(b, uint32(a.To))
	b = netx.AppendBytes(b, rb)
	return netx.AppendBytes(b, a.Sig), nil
}

func readAnnouncement(r *netx.PayloadReader) (*core.Announcement, error) {
	var a core.Announcement
	var err error
	if a.Epoch, err = r.U64(); err != nil {
		return nil, err
	}
	prov, err := r.U32()
	if err != nil {
		return nil, err
	}
	to, err := r.U32()
	if err != nil {
		return nil, err
	}
	a.Provider, a.To = aspath.ASN(prov), aspath.ASN(to)
	rb, err := r.Bytes()
	if err != nil {
		return nil, err
	}
	if err := a.Route.UnmarshalBinary(rb); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrWire, err)
	}
	sig, err := r.Bytes()
	if err != nil {
		return nil, err
	}
	a.Sig = append([]byte(nil), sig...)
	return &a, nil
}

func appendExport(b []byte, e *core.ExportStatement) ([]byte, error) {
	b = netx.AppendU64(b, e.Epoch)
	b = netx.AppendU32(b, uint32(e.Prover))
	b = netx.AppendU32(b, uint32(e.To))
	if e.Empty {
		b = append(b, 1)
		b = netx.AppendBytes(b, nil)
	} else {
		b = append(b, 0)
		rb, err := e.Route.MarshalBinary()
		if err != nil {
			return nil, err
		}
		b = netx.AppendBytes(b, rb)
	}
	return netx.AppendBytes(b, e.Sig), nil
}

func readExport(r *netx.PayloadReader) (*core.ExportStatement, error) {
	var e core.ExportStatement
	var err error
	if e.Epoch, err = r.U64(); err != nil {
		return nil, err
	}
	prover, err := r.U32()
	if err != nil {
		return nil, err
	}
	to, err := r.U32()
	if err != nil {
		return nil, err
	}
	e.Prover, e.To = aspath.ASN(prover), aspath.ASN(to)
	empty, err := r.U8()
	if err != nil {
		return nil, err
	}
	if empty > 1 {
		return nil, fmt.Errorf("%w: export empty flag %d", ErrWire, empty)
	}
	e.Empty = empty == 1
	rb, err := r.Bytes()
	if err != nil {
		return nil, err
	}
	if e.Empty {
		if len(rb) != 0 {
			return nil, fmt.Errorf("%w: empty export carries a route", ErrWire)
		}
	} else if err := e.Route.UnmarshalBinary(rb); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrWire, err)
	}
	sig, err := r.Bytes()
	if err != nil {
		return nil, err
	}
	e.Sig = append([]byte(nil), sig...)
	return &e, nil
}
