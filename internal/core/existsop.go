package core

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"pvr/internal/aspath"
	"pvr/internal/commit"
	"pvr/internal/prefix"
	"pvr/internal/route"
	"pvr/internal/sigs"
)

// This file implements the §3.2 existential-operator protocol: A promises B
// to export a route whenever at least one provider supplies one. A commits
// to the single bit b ("I received at least one route") as c = H(b ‖ p),
// neighbors gossip c, then A reveals (b, p) to every providing N_i and to
// B, plus the signed winning route to B.

// ExistsCommitment is A's signed single-bit commitment.
type ExistsCommitment struct {
	Prover     aspath.ASN
	Epoch      uint64
	Prefix     prefix.Prefix
	Commitment commit.Commitment
	Sig        []byte
}

// ExistsTag returns the domain-separation tag of the existential bit.
func ExistsTag(prover aspath.ASN, pfx prefix.Prefix, epoch uint64) string {
	return "pvr/exists-bit/" + VectorID(prover, pfx, epoch)
}

func (ec *ExistsCommitment) bytes() ([]byte, error) {
	pb, err := ec.Prefix.MarshalBinary()
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	buf.WriteString(tagExistCmt)
	var u8 [8]byte
	binary.BigEndian.PutUint64(u8[:], ec.Epoch)
	buf.Write(u8[:])
	binary.BigEndian.PutUint32(u8[:4], uint32(ec.Prover))
	buf.Write(u8[:4])
	buf.WriteByte(byte(len(pb)))
	buf.Write(pb)
	buf.Write(ec.Commitment[:])
	return buf.Bytes(), nil
}

// Verify checks the prover's signature.
func (ec *ExistsCommitment) Verify(reg sigs.Verifier) error {
	msg, err := ec.bytes()
	if err != nil {
		return err
	}
	if err := reg.Verify(ec.Prover, msg, ec.Sig); err != nil {
		return fmt.Errorf("%w: %v", ErrBadCommitment, err)
	}
	return nil
}

// Equal reports content equality (signature excluded).
func (ec *ExistsCommitment) Equal(o *ExistsCommitment) bool {
	return ec.Prover == o.Prover && ec.Epoch == o.Epoch && ec.Prefix == o.Prefix &&
		ec.Commitment == o.Commitment
}

// GossipTopic returns the equivocation-detection topic.
func (ec *ExistsCommitment) GossipTopic() string {
	return "exists/" + VectorID(ec.Prover, ec.Prefix, ec.Epoch)
}

// GossipPayload returns canonical bytes plus signature for gossip.
func (ec *ExistsCommitment) GossipPayload() ([]byte, []byte, error) {
	b, err := ec.bytes()
	return b, ec.Sig, err
}

// CommitExists computes and signs the existential commitment for the
// prover's current epoch (idempotent would require caching; each call
// creates a fresh commitment, so call once per epoch).
func (p *Prover) CommitExists() (*ExistsCommitment, *commit.Opening, error) {
	bit := len(p.inputs) > 0
	cm, op, err := p.cm.CommitBit(ExistsTag(p.asn, p.pfx, p.epoch), bit)
	if err != nil {
		return nil, nil, err
	}
	ec := &ExistsCommitment{Prover: p.asn, Epoch: p.epoch, Prefix: p.pfx, Commitment: cm}
	msg, err := ec.bytes()
	if err != nil {
		return nil, nil, err
	}
	if ec.Sig, err = p.signer.Sign(msg); err != nil {
		return nil, nil, err
	}
	return ec, &op, nil
}

// ExistsProviderView is what a providing N_i receives: the commitment and
// the opening of b. N_i checks b = 1 (§3.2 condition 2).
type ExistsProviderView struct {
	Commitment *ExistsCommitment
	Opening    commit.Opening
}

// ExistsPromiseeView is what B receives: the opening plus, when b = 1, the
// winning signed input and the signed export (§3.2 condition 1).
type ExistsPromiseeView struct {
	Commitment *ExistsCommitment
	Opening    commit.Opening
	Winner     *Announcement
	Export     ExportStatement
}

// DiscloseExistsToProvider builds N_i's view from a commitment and opening
// produced by CommitExists.
func (p *Prover) DiscloseExistsToProvider(ec *ExistsCommitment, op commit.Opening, ni aspath.ASN) (*ExistsProviderView, error) {
	if _, ok := p.inputs[ni]; !ok {
		return nil, fmt.Errorf("core: %s provided no route this epoch", ni)
	}
	return &ExistsProviderView{Commitment: ec, Opening: op}, nil
}

// DiscloseExistsToPromisee builds B's view.
func (p *Prover) DiscloseExistsToPromisee(ec *ExistsCommitment, op commit.Opening, b aspath.ASN) (*ExistsPromiseeView, error) {
	var (
		winner *Announcement
		exp    ExportStatement
		err    error
	)
	if w, ok := p.Winner(); ok {
		winner = &w
		exported, perr := w.Route.WithPrepended(p.asn)
		if perr != nil {
			return nil, perr
		}
		exp, err = NewExportStatement(p.signer, p.asn, b, p.epoch, exported, false)
	} else {
		exp, err = NewExportStatement(p.signer, p.asn, b, p.epoch, route.Route{}, true)
	}
	if err != nil {
		return nil, err
	}
	return &ExistsPromiseeView{Commitment: ec, Opening: op, Winner: winner, Export: exp}, nil
}

// VerifyExistsProviderView is N_i's §3.2 check: commitment authentic,
// opening valid, and — since N_i provided a route — the bit must be 1.
func VerifyExistsProviderView(reg sigs.Verifier, v *ExistsProviderView, myAnn Announcement) error {
	ec := v.Commitment
	if ec == nil {
		return fmt.Errorf("%w: missing commitment", ErrBadCommitment)
	}
	if err := ec.Verify(reg); err != nil {
		return err
	}
	if ec.Epoch != myAnn.Epoch || ec.Prefix != myAnn.Route.Prefix || ec.Prover != myAnn.To {
		return fmt.Errorf("%w: commitment does not cover my announcement", ErrBadCommitment)
	}
	if want := ExistsTag(ec.Prover, ec.Prefix, ec.Epoch); v.Opening.Tag != want {
		return fmt.Errorf("%w: opening tag %q", ErrBadCommitment, v.Opening.Tag)
	}
	if err := commit.Verify(ec.Commitment, v.Opening); err != nil {
		return fmt.Errorf("%w: opening rejected", ErrBadCommitment)
	}
	bit, err := v.Opening.Bit()
	if err != nil {
		return fmt.Errorf("%w: %v", ErrBadCommitment, err)
	}
	if !bit {
		return &Violation{Accused: ec.Prover, Kind: "false-bit",
			Detail: fmt.Sprintf("existential bit committed as 0 although %s provided a route", myAnn.Provider)}
	}
	return nil
}

// VerifyExistsPromiseeView is B's §3.2 check: either b = 0 and nothing was
// exported, or b = 1 and a properly signed input route was exported (with
// A prepended).
func VerifyExistsPromiseeView(reg sigs.Verifier, v *ExistsPromiseeView) error {
	ec := v.Commitment
	if ec == nil {
		return fmt.Errorf("%w: missing commitment", ErrBadCommitment)
	}
	if err := ec.Verify(reg); err != nil {
		return err
	}
	if err := v.Export.Verify(reg); err != nil {
		return err
	}
	if v.Export.Prover != ec.Prover || v.Export.Epoch != ec.Epoch {
		return fmt.Errorf("%w: export does not cover this epoch", ErrBadCommitment)
	}
	if want := ExistsTag(ec.Prover, ec.Prefix, ec.Epoch); v.Opening.Tag != want {
		return fmt.Errorf("%w: opening tag %q", ErrBadCommitment, v.Opening.Tag)
	}
	if err := commit.Verify(ec.Commitment, v.Opening); err != nil {
		return fmt.Errorf("%w: opening rejected", ErrBadCommitment)
	}
	bit, err := v.Opening.Bit()
	if err != nil {
		return fmt.Errorf("%w: %v", ErrBadCommitment, err)
	}
	if !bit {
		if !v.Export.Empty {
			return &Violation{Accused: ec.Prover, Kind: "bad-export",
				Detail: "exported a route although the existential bit is 0"}
		}
		return nil
	}
	if v.Export.Empty {
		return &Violation{Accused: ec.Prover, Kind: "bad-export",
			Detail: "existential bit is 1 but nothing was exported"}
	}
	if v.Winner == nil {
		return fmt.Errorf("%w: no provenance for exported route", ErrBadCommitment)
	}
	if err := v.Winner.Verify(reg); err != nil {
		return err
	}
	if v.Winner.To != ec.Prover || v.Winner.Epoch != ec.Epoch || v.Winner.Route.Prefix != ec.Prefix {
		return fmt.Errorf("%w: provenance does not cover this epoch", ErrBadCommitment)
	}
	wantExport, err := v.Winner.Route.WithPrepended(ec.Prover)
	if err != nil {
		return err
	}
	if !v.Export.Route.Path.Equal(wantExport.Path) || v.Export.Route.Prefix != wantExport.Prefix {
		return &Violation{Accused: ec.Prover, Kind: "bad-export",
			Detail: fmt.Sprintf("export path %s does not extend winner path %s", v.Export.Route.Path, v.Winner.Route.Path)}
	}
	return nil
}
