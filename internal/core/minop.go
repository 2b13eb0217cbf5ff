package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sort"

	"pvr/internal/aspath"
	"pvr/internal/commit"
	"pvr/internal/prefix"
	"pvr/internal/sigs"
)

// This file implements the §3.3 minimum-operator protocol for the Fig. 1
// scenario: A promises B to export the shortest route received from
// N_1 … N_k. A commits to the monotone bit vector b_1 … b_K (b_i = "some
// input has AS-path length ≤ i"), reveals b_{|r_i|} to each provider N_i,
// and the whole vector plus the winning signed input to the promisee B.

// MinCommitment is A's signed, published commitment for one (prefix,
// epoch): the bit-vector commitments of §3.3. Neighbors gossip it to
// detect equivocation.
type MinCommitment struct {
	Prover      aspath.ASN
	Epoch       uint64
	Prefix      prefix.Prefix
	Commitments []commit.Commitment
	Sig         []byte
}

// VectorID identifies the committed vector; it parameterizes the per-bit
// commitment tags so openings cannot migrate between prefixes, epochs, or
// provers.
func VectorID(prover aspath.ASN, pfx prefix.Prefix, epoch uint64) string {
	return fmt.Sprintf("%d/%s/%d", uint32(prover), pfx, epoch)
}

// SignedBytes returns the canonical byte encoding the prover signs — or,
// when the commitment is sealed inside a Merkle batch (internal/engine),
// the leaf bytes bound to the shard root. The domain tag makes the bytes
// unambiguous in either role.
func (mc *MinCommitment) SignedBytes() ([]byte, error) { return mc.bytes() }

// ParseMinCommitmentBytes decodes the SignedBytes encoding (signature not
// included — a batched commitment is authenticated by its shard seal, so
// wire consumers receive the canonical bytes and must recover the fields
// to check them against the accompanying route).
func ParseMinCommitmentBytes(b []byte) (*MinCommitment, error) {
	rest, ok := bytes.CutPrefix(b, []byte(tagMinCmt))
	if !ok {
		return nil, fmt.Errorf("%w: bad commitment tag", ErrBadCommitment)
	}
	if len(rest) < 8+4+1 {
		return nil, fmt.Errorf("%w: short commitment encoding", ErrBadCommitment)
	}
	mc := &MinCommitment{
		Epoch:  binary.BigEndian.Uint64(rest),
		Prover: aspath.ASN(binary.BigEndian.Uint32(rest[8:])),
	}
	rest = rest[12:]
	pl := int(rest[0])
	rest = rest[1:]
	if len(rest) < pl+4 {
		return nil, fmt.Errorf("%w: short commitment encoding", ErrBadCommitment)
	}
	if err := mc.Prefix.UnmarshalBinary(rest[:pl]); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadCommitment, err)
	}
	rest = rest[pl:]
	n := int(binary.BigEndian.Uint32(rest))
	rest = rest[4:]
	if n > MaxVectorLen || len(rest) != n*commit.Size {
		return nil, fmt.Errorf("%w: malformed commitment vector", ErrBadCommitment)
	}
	mc.Commitments = make([]commit.Commitment, n)
	for i := range mc.Commitments {
		copy(mc.Commitments[i][:], rest[i*commit.Size:])
	}
	// Round-trip check: the parse must be the exact inverse of bytes().
	rt, err := mc.bytes()
	if err != nil || !bytes.Equal(rt, b) {
		return nil, fmt.Errorf("%w: non-canonical commitment encoding", ErrBadCommitment)
	}
	return mc, nil
}

func (mc *MinCommitment) bytes() ([]byte, error) {
	pb, err := mc.Prefix.MarshalBinary()
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	// Sized exactly: the engine keeps these bytes as Merkle leaves for as
	// long as a shard stays sealed, and a buffer grown by doubling would
	// keep up to as much again unused behind each.
	buf.Grow(len(tagMinCmt) + 8 + 4 + 1 + len(pb) + 4 + len(mc.Commitments)*len(commit.Commitment{}))
	buf.WriteString(tagMinCmt)
	var u8 [8]byte
	binary.BigEndian.PutUint64(u8[:], mc.Epoch)
	buf.Write(u8[:])
	binary.BigEndian.PutUint32(u8[:4], uint32(mc.Prover))
	buf.Write(u8[:4])
	buf.WriteByte(byte(len(pb)))
	buf.Write(pb)
	binary.BigEndian.PutUint32(u8[:4], uint32(len(mc.Commitments)))
	buf.Write(u8[:4])
	for _, c := range mc.Commitments {
		buf.Write(c[:])
	}
	return buf.Bytes(), nil
}

// Verify checks the prover's signature over the commitment.
func (mc *MinCommitment) Verify(ver sigs.Verifier) error {
	msg, err := mc.bytes()
	if err != nil {
		return err
	}
	if err := ver.Verify(mc.Prover, msg, mc.Sig); err != nil {
		return fmt.Errorf("%w: %v", ErrBadCommitment, err)
	}
	return nil
}

// Equal reports whether two commitments bind the same vector (signatures
// excluded: two different signatures over identical content are not
// equivocation).
func (mc *MinCommitment) Equal(o *MinCommitment) bool {
	if mc.Prover != o.Prover || mc.Epoch != o.Epoch || mc.Prefix != o.Prefix ||
		len(mc.Commitments) != len(o.Commitments) {
		return false
	}
	for i := range mc.Commitments {
		if mc.Commitments[i] != o.Commitments[i] {
			return false
		}
	}
	return true
}

// GossipTopic returns the topic under which neighbors gossip this
// commitment for equivocation detection.
func (mc *MinCommitment) GossipTopic() string {
	return "min/" + VectorID(mc.Prover, mc.Prefix, mc.Epoch)
}

// GossipPayload returns the canonical signed bytes plus signature for the
// audit gossip.
func (mc *MinCommitment) GossipPayload() ([]byte, []byte, error) {
	b, err := mc.bytes()
	return b, mc.Sig, err
}

// Prover is network A: it gathers signed inputs for one (prefix, epoch),
// commits, chooses, exports, and discloses. Not safe for concurrent use.
type Prover struct {
	asn    aspath.ASN
	signer sigs.Signer
	reg    sigs.Verifier
	cm     commit.Committer
	// MaxLen is K, the bit-vector length: the maximum AS-path length at A
	// (§3.3 "Suppose the maximum AS-path length at A is k").
	maxLen int

	epoch  uint64
	pfx    prefix.Prefix
	inputs map[aspath.ASN]Announcement
	bv     *commit.BitVector
	mc     *MinCommitment
}

// MaxVectorLen bounds the committed bit-vector length K. The write path
// (NewProver) and the wire parser (ParseMinCommitmentBytes) enforce the
// same bound, so every commitment a prover can seal is also parseable by
// its neighbors. 1024 is far beyond any real AS-path length.
const MaxVectorLen = 1024

// NewProver creates a prover for network asn with bit-vector length maxLen.
func NewProver(asn aspath.ASN, signer sigs.Signer, reg sigs.Verifier, maxLen int) (*Prover, error) {
	if maxLen < 1 || maxLen > MaxVectorLen {
		return nil, fmt.Errorf("core: maxLen %d out of range 1..%d", maxLen, MaxVectorLen)
	}
	return &Prover{asn: asn, signer: signer, reg: reg, maxLen: maxLen}, nil
}

// ASN returns the prover's AS number.
func (p *Prover) ASN() aspath.ASN { return p.asn }

// BeginEpoch starts a fresh commitment epoch for a prefix, clearing inputs.
func (p *Prover) BeginEpoch(epoch uint64, pfx prefix.Prefix) {
	p.epoch = epoch
	p.pfx = pfx
	p.inputs = make(map[aspath.ASN]Announcement)
	p.bv = nil
	p.mc = nil
}

// AcceptAnnouncement verifies and records an input route, returning the
// signed receipt. Announcements for other prefixes, epochs, or recipients
// are rejected.
func (p *Prover) AcceptAnnouncement(a Announcement) (Receipt, error) {
	if err := p.Accept(a); err != nil {
		return Receipt{}, err
	}
	return NewReceipt(p.signer, p.asn, &a)
}

// Accept is AcceptAnnouncement without the receipt, for callers that
// acknowledge announcements some other way or not at all.
func (p *Prover) Accept(a Announcement) error {
	if err := p.checkAnnouncement(&a); err != nil {
		return err
	}
	if err := a.Verify(p.reg); err != nil {
		return err
	}
	p.inputs[a.Provider] = a
	return nil
}

// AcceptPreverified records an input route whose signature the caller
// already verified — the engine batch-verifies a whole epoch's
// announcements in one pass and then ingests them through here, so the
// per-announcement cost is content checks only. No receipt is issued;
// bulk callers acknowledge with one ReceiptBatch instead.
func (p *Prover) AcceptPreverified(a Announcement) error {
	if err := p.checkAnnouncement(&a); err != nil {
		return err
	}
	if err := a.CheckContent(); err != nil {
		return err
	}
	p.inputs[a.Provider] = a
	return nil
}

// checkAnnouncement rejects announcements for other prefixes, epochs, or
// recipients, and routes longer than the committed vector.
func (p *Prover) checkAnnouncement(a *Announcement) error {
	if a.Epoch != p.epoch {
		return fmt.Errorf("%w: announcement epoch %d, current %d", ErrWrongEpoch, a.Epoch, p.epoch)
	}
	if a.To != p.asn {
		return fmt.Errorf("%w: addressed to %s", ErrBadAnnouncement, a.To)
	}
	if a.Route.Prefix != p.pfx {
		return fmt.Errorf("%w: prefix %s, epoch covers %s", ErrBadAnnouncement, a.Route.Prefix, p.pfx)
	}
	if a.Route.PathLen() > p.maxLen {
		return fmt.Errorf("%w: path length %d exceeds K=%d", ErrBadAnnouncement, a.Route.PathLen(), p.maxLen)
	}
	return nil
}

// Inputs returns the accepted providers in ascending order.
func (p *Prover) Inputs() []aspath.ASN {
	out := make([]aspath.ASN, 0, len(p.inputs))
	for a := range p.inputs {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// bits computes the honest bit vector from the accepted inputs.
func (p *Prover) bits() []bool {
	bits := make([]bool, p.maxLen)
	for _, a := range p.inputs {
		l := a.Route.PathLen()
		for i := l; i <= p.maxLen; i++ {
			bits[i-1] = true
		}
	}
	return bits
}

// CommitMin computes and signs the bit-vector commitment (idempotent per
// epoch). This is the publish step of §3.3.
func (p *Prover) CommitMin() (*MinCommitment, error) {
	if p.mc != nil && p.mc.Sig != nil {
		return p.mc, nil
	}
	mc, err := p.CommitMinUnsigned()
	if err != nil {
		return nil, err
	}
	msg, err := mc.bytes()
	if err != nil {
		return nil, err
	}
	if mc.Sig, err = p.signer.Sign(msg); err != nil {
		return nil, err
	}
	return mc, nil
}

// CommitMinUnsigned computes the bit-vector commitment without signing it
// (idempotent per epoch). Callers that amortize signatures — the engine
// seals one Merkle batch of SignedBytes per shard and signs only the root —
// use this instead of CommitMin; everyone else wants CommitMin.
func (p *Prover) CommitMinUnsigned() (*MinCommitment, error) {
	if p.mc != nil {
		return p.mc, nil
	}
	bv, err := p.cm.CommitBitVector(VectorID(p.asn, p.pfx, p.epoch), p.bits())
	if err != nil {
		return nil, err
	}
	mc := &MinCommitment{
		Prover:      p.asn,
		Epoch:       p.epoch,
		Prefix:      p.pfx,
		Commitments: bv.Commitments,
	}
	p.bv, p.mc = bv, mc
	return mc, nil
}

// Prefix returns the prefix of the current epoch.
func (p *Prover) Prefix() prefix.Prefix { return p.pfx }

// Epoch returns the current epoch number.
func (p *Prover) Epoch() uint64 { return p.epoch }

// Winner returns the chosen (shortest) input announcement; ok is false when
// there are no inputs. Ties break to the lowest provider ASN.
func (p *Prover) Winner() (Announcement, bool) {
	var (
		best  Announcement
		found bool
	)
	for _, asn := range p.Inputs() {
		a := p.inputs[asn]
		if !found || a.Route.PathLen() < best.Route.PathLen() {
			best, found = a, true
		}
	}
	return best, found
}

// Export produces the signed export statement for the promisee: the winning
// route with A prepended, or an explicit "nothing" statement.
func (p *Prover) Export(to aspath.ASN) (ExportStatement, error) {
	e, err := p.ExportUnsigned(to)
	if err != nil {
		return ExportStatement{}, err
	}
	msg, err := e.SignedBytes()
	if err != nil {
		return ExportStatement{}, err
	}
	if e.Sig, err = p.signer.Sign(msg); err != nil {
		return ExportStatement{}, err
	}
	return e, nil
}

// ExportUnsigned builds the export statement content without signing it
// (Sig nil). The engine uses this when the export is authenticated by a
// hiding commitment bound into the sealed shard leaf, amortizing the
// per-prefix export signature into the shard seal.
func (p *Prover) ExportUnsigned(to aspath.ASN) (ExportStatement, error) {
	w, ok := p.Winner()
	if !ok {
		return ExportStatement{Epoch: p.epoch, Prover: p.asn, To: to, Empty: true}, nil
	}
	exported, err := w.Route.WithPrepended(p.asn)
	if err != nil {
		return ExportStatement{}, err
	}
	return ExportStatement{Epoch: p.epoch, Prover: p.asn, To: to, Route: exported}, nil
}

// ProviderView is what A reveals to a provider N_i: the commitment and the
// opening of bit b_{|r_i|} (§3.3: "To each Ni that has provided a route ri
// to A, A now reveals the bit b_|ri|").
type ProviderView struct {
	Commitment *MinCommitment
	Position   int // 1-based |r_i|
	Opening    commit.Opening
}

// DiscloseToProvider builds the view for provider ni, which must have
// provided a route this epoch. CommitMin must have been called.
func (p *Prover) DiscloseToProvider(ni aspath.ASN) (*ProviderView, error) {
	if p.bv == nil {
		return nil, fmt.Errorf("core: CommitMin not called")
	}
	a, ok := p.inputs[ni]
	if !ok {
		return nil, fmt.Errorf("core: %s provided no route this epoch", ni)
	}
	pos := a.Route.PathLen()
	op, err := p.bv.Open(pos)
	if err != nil {
		return nil, err
	}
	return &ProviderView{Commitment: p.mc, Position: pos, Opening: op}, nil
}

// DiscloseAtLength builds the anonymous-provider view: the opening of bit
// b_pos for a caller that has proven ring membership in the declared
// provider set without identifying itself. pos must be the path length of
// some accepted input — any ring member that supplied a route of that
// length is entitled to exactly this opening under §3.3, so granting it
// reveals nothing about which one asked. CommitMin must have been called.
func (p *Prover) DiscloseAtLength(pos int) (*ProviderView, error) {
	if p.bv == nil {
		return nil, fmt.Errorf("core: CommitMin not called")
	}
	declared := false
	for _, a := range p.inputs {
		if a.Route.PathLen() == pos {
			declared = true
			break
		}
	}
	if !declared {
		return nil, fmt.Errorf("core: no declared input of length %d this epoch", pos)
	}
	op, err := p.bv.Open(pos)
	if err != nil {
		return nil, err
	}
	return &ProviderView{Commitment: p.mc, Position: pos, Opening: op}, nil
}

// DeclaredLengths returns the distinct route lengths among the accepted
// inputs, ascending — the positions DiscloseAtLength will open.
func (p *Prover) DeclaredLengths() []int {
	seen := make(map[int]bool, len(p.inputs))
	for _, a := range p.inputs {
		seen[a.Route.PathLen()] = true
	}
	out := make([]int, 0, len(seen))
	for l := range seen {
		out = append(out, l)
	}
	sort.Ints(out)
	return out
}

// CommittedBits returns the honest bit vector behind the current
// commitment, for callers that bridge it into a second commitment scheme
// (the privacy plane's Pedersen vector). CommitMin must have been called
// so the returned bits are exactly the committed ones.
func (p *Prover) CommittedBits() ([]bool, error) {
	if p.bv == nil {
		return nil, fmt.Errorf("core: CommitMin not called")
	}
	return p.bits(), nil
}

// PromiseeView is what A reveals to B: all bit openings, the winning signed
// input (provenance), and the signed export statement.
type PromiseeView struct {
	Commitment *MinCommitment
	Openings   []commit.Opening
	Winner     *Announcement // nil when nothing was exported
	Export     ExportStatement
}

// DiscloseToPromisee builds B's view. CommitMin must have been called.
func (p *Prover) DiscloseToPromisee(b aspath.ASN) (*PromiseeView, error) {
	exp, err := p.Export(b)
	if err != nil {
		return nil, err
	}
	return p.DiscloseToPromiseeWith(exp)
}

// DiscloseToPromiseeWith builds B's view around a caller-supplied export
// statement — the engine passes its sealed, unsigned export so disclosure
// does not spend a signature per prefix. CommitMin must have been called.
func (p *Prover) DiscloseToPromiseeWith(exp ExportStatement) (*PromiseeView, error) {
	if p.bv == nil {
		return nil, fmt.Errorf("core: CommitMin not called")
	}
	view := &PromiseeView{
		Commitment: p.mc,
		Openings:   p.bv.OpenAll(),
		Export:     exp,
	}
	if w, ok := p.Winner(); ok {
		view.Winner = &w
	}
	return view, nil
}

// VerifyProviderView is N_i's check (§3.3): the commitment is authentic,
// the opening is for position |r_i| with the right tag, it verifies against
// commitment b_{|r_i|}, and the bit is 1 — "clearly, the chosen route
// cannot be longer than Ni's route". myAnn is the announcement N_i sent.
// A *Violation error means N_i has caught A; other errors mean the view is
// malformed or unauthentic (and should be treated as a protocol failure).
func VerifyProviderView(ver sigs.Verifier, v *ProviderView, myAnn Announcement) error {
	mc := v.Commitment
	if mc == nil {
		return fmt.Errorf("%w: missing commitment", ErrBadCommitment)
	}
	if err := mc.Verify(ver); err != nil {
		return err
	}
	return CheckProviderOpening(mc, v.Position, v.Opening, myAnn)
}

// CheckProviderOpening is the content half of N_i's check: everything
// except the commitment's own authenticity, which the caller has already
// established (via MinCommitment.Verify, or via a shard seal plus Merkle
// inclusion proof when the commitment arrived batched from the engine).
func CheckProviderOpening(mc *MinCommitment, position int, opening commit.Opening, myAnn Announcement) error {
	if mc.Epoch != myAnn.Epoch || mc.Prefix != myAnn.Route.Prefix || mc.Prover != myAnn.To {
		return fmt.Errorf("%w: commitment does not cover my announcement", ErrBadCommitment)
	}
	if position != myAnn.Route.PathLen() {
		return fmt.Errorf("%w: opened position %d, my route length %d", ErrBadCommitment, position, myAnn.Route.PathLen())
	}
	if position < 1 || position > len(mc.Commitments) {
		return fmt.Errorf("%w: position %d out of range", ErrBadCommitment, position)
	}
	wantTag := commit.VectorTag(VectorID(mc.Prover, mc.Prefix, mc.Epoch), position)
	if opening.Tag != wantTag {
		return fmt.Errorf("%w: opening tag %q, want %q", ErrBadCommitment, opening.Tag, wantTag)
	}
	if err := commit.Verify(mc.Commitments[position-1], opening); err != nil {
		return fmt.Errorf("%w: opening does not match commitment", ErrBadCommitment)
	}
	bit, err := opening.Bit()
	if err != nil {
		return fmt.Errorf("%w: %v", ErrBadCommitment, err)
	}
	if !bit {
		return &Violation{
			Accused: mc.Prover,
			Kind:    "false-bit",
			Detail: fmt.Sprintf("bit %d committed as 0, but provider %s supplied a length-%d route",
				position, myAnn.Provider, myAnn.Route.PathLen()),
		}
	}
	return nil
}

// VerifyPromiseeView is B's check (§3.3): every opening verifies, the
// vector is monotone, and the export matches the committed minimum — if
// any bit is set a properly signed winning route of exactly the minimum
// length must be exported (with A prepended); if no bit is set, nothing may
// be exported.
func VerifyPromiseeView(ver sigs.Verifier, v *PromiseeView) error {
	mc := v.Commitment
	if mc == nil {
		return fmt.Errorf("%w: missing commitment", ErrBadCommitment)
	}
	if err := mc.Verify(ver); err != nil {
		return err
	}
	return CheckPromiseeDisclosure(ver, v)
}

// CheckPromiseeDisclosure is the content half of B's check: every opening,
// monotonicity, and export consistency — everything except the
// commitment's own authenticity, which the caller has already established
// (directly or through a shard seal and inclusion proof). The export and
// winner signatures are still checked here, inline.
func CheckPromiseeDisclosure(ver sigs.Verifier, v *PromiseeView) error {
	return CheckPromiseeDisclosureDeferred(ImmediateChecker(ver), v, false)
}

// CheckPromiseeDisclosureDeferred is CheckPromiseeDisclosure with the
// export and winner signature checks routed through ck (a batch
// collector, say). exportAuthed skips the export signature entirely: the
// caller has authenticated the export bytes some other way, e.g. against
// a hiding commitment bound into the sealed shard leaf. When ck defers,
// a nil return (and even a *Violation) is provisional until the owning
// batch flushes clean — a forged winner signature discovered at flush
// time invalidates the verdict.
func CheckPromiseeDisclosureDeferred(ck SigChecker, v *PromiseeView, exportAuthed bool) error {
	mc := v.Commitment
	if mc == nil {
		return fmt.Errorf("%w: missing commitment", ErrBadCommitment)
	}
	if !exportAuthed {
		if err := v.Export.VerifyDeferred(ck); err != nil {
			return err
		}
	}
	if v.Export.Prover != mc.Prover || v.Export.Epoch != mc.Epoch {
		return fmt.Errorf("%w: export statement does not cover this epoch", ErrBadCommitment)
	}
	if len(v.Openings) != len(mc.Commitments) {
		return fmt.Errorf("%w: %d openings for %d commitments", ErrBadCommitment, len(v.Openings), len(mc.Commitments))
	}
	id := VectorID(mc.Prover, mc.Prefix, mc.Epoch)
	bits := make([]bool, len(v.Openings))
	for i, op := range v.Openings {
		if op.Tag != commit.VectorTag(id, i+1) {
			return fmt.Errorf("%w: opening %d has tag %q", ErrBadCommitment, i+1, op.Tag)
		}
		if err := commit.Verify(mc.Commitments[i], op); err != nil {
			return fmt.Errorf("%w: opening %d rejected", ErrBadCommitment, i+1)
		}
		b, err := op.Bit()
		if err != nil {
			return fmt.Errorf("%w: opening %d: %v", ErrBadCommitment, i+1, err)
		}
		bits[i] = b
	}
	// Check (b): monotonicity.
	if err := commit.CheckMonotone(bits); err != nil {
		return &Violation{Accused: mc.Prover, Kind: "non-monotone", Detail: err.Error()}
	}
	min, have := commit.MinFromBits(bits)
	// Check (a): bit set ⇒ properly signed route of that length exported.
	if !have {
		if !v.Export.Empty {
			return &Violation{Accused: mc.Prover, Kind: "bad-export",
				Detail: "exported a route although the committed vector is all-zero"}
		}
		if v.Winner != nil {
			return fmt.Errorf("%w: winner present with empty vector", ErrBadCommitment)
		}
		return nil
	}
	if v.Export.Empty {
		return &Violation{Accused: mc.Prover, Kind: "bad-export",
			Detail: fmt.Sprintf("committed minimum %d but exported nothing", min)}
	}
	if v.Winner == nil {
		return fmt.Errorf("%w: no provenance for exported route", ErrBadCommitment)
	}
	if err := v.Winner.VerifyDeferred(ck); err != nil {
		return err
	}
	if v.Winner.To != mc.Prover || v.Winner.Epoch != mc.Epoch || v.Winner.Route.Prefix != mc.Prefix {
		return fmt.Errorf("%w: provenance does not cover this epoch", ErrBadCommitment)
	}
	if v.Winner.Route.PathLen() != min {
		return &Violation{Accused: mc.Prover, Kind: "bad-export",
			Detail: fmt.Sprintf("winner has length %d, committed minimum is %d", v.Winner.Route.PathLen(), min)}
	}
	wantExport, err := v.Winner.Route.WithPrepended(mc.Prover)
	if err != nil {
		return err
	}
	if !v.Export.Route.Path.Equal(wantExport.Path) || v.Export.Route.Prefix != wantExport.Prefix {
		return &Violation{Accused: mc.Prover, Kind: "bad-export",
			Detail: fmt.Sprintf("export path %s does not extend winner path %s", v.Export.Route.Path, v.Winner.Route.Path)}
	}
	return nil
}
