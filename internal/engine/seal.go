package engine

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"pvr/internal/aspath"
	"pvr/internal/commit"
	"pvr/internal/core"
	"pvr/internal/gossip"
	"pvr/internal/merkle"
	"pvr/internal/obs"
	"pvr/internal/sigs"
)

// tagSeal domain-separates shard-seal signatures from every other signed
// payload in the protocol. v2 adds the commitment-window sequence number
// for the streaming update plane (internal/updplane).
const tagSeal = "pvr/shard-seal/v2"

// Seal is one shard's signed epoch commitment: a Merkle root over the
// canonical bytes of every per-prefix MinCommitment the shard holds,
// signed once. It replaces per-prefix commitment signatures (§3.8: "sign
// messages in batches, perhaps using a small MHT to reveal batched routes
// individually") — with S shards the prover produces S signatures per
// epoch instead of one per prefix.
type Seal struct {
	Prover aspath.ASN
	Epoch  uint64
	// Window is the commitment window within the epoch. SealEpoch publishes
	// window 0; each SealDirty under live churn advances it. The window is
	// signed and part of the gossip topic, so a re-seal after a legitimate
	// route change is a fresh statement rather than a false equivocation,
	// while two different roots for the same (epoch, window, shard) remain
	// a provable equivocation.
	Window uint64
	// Shard is this seal's shard index; Shards is the engine's total shard
	// count. Both are signed so a prover cannot present the same prefix
	// under two different shard layouts without equivocating.
	Shard  uint32
	Shards uint32
	// Count is the number of committed prefixes (Merkle leaves).
	Count uint32
	Root  merkle.Root
	Sig   []byte
	// Trace is the distributed trace context of the announcement that most
	// recently dirtied this shard. It is observability metadata only:
	// excluded from SignedBytes, MarshalBinary, the gossip statement, and
	// every equivocation comparison. It propagates out-of-band (wire
	// extensions, BGP attachments) so cross-participant event rings stitch
	// into end-to-end causal chains.
	Trace obs.TraceContext
}

// SignedBytes returns the canonical bytes the prover signs.
func (s *Seal) SignedBytes() []byte {
	var buf bytes.Buffer
	buf.WriteString(tagSeal)
	var u8 [8]byte
	binary.BigEndian.PutUint64(u8[:], s.Epoch)
	buf.Write(u8[:])
	binary.BigEndian.PutUint64(u8[:], s.Window)
	buf.Write(u8[:])
	binary.BigEndian.PutUint32(u8[:4], uint32(s.Prover))
	buf.Write(u8[:4])
	binary.BigEndian.PutUint32(u8[:4], s.Shard)
	buf.Write(u8[:4])
	binary.BigEndian.PutUint32(u8[:4], s.Shards)
	buf.Write(u8[:4])
	binary.BigEndian.PutUint32(u8[:4], s.Count)
	buf.Write(u8[:4])
	buf.Write(s.Root[:])
	return buf.Bytes()
}

// Verify checks the prover's signature over the seal.
func (s *Seal) Verify(ver sigs.Verifier) error {
	if err := ver.Verify(s.Prover, s.SignedBytes(), s.Sig); err != nil {
		return fmt.Errorf("engine: seal: %w", err)
	}
	return nil
}

// VerifyMemoized checks the seal signature through a shared memo: a seal
// already verified anywhere the memo is wired (the gossip observe path,
// a pipeline, a disclosure query) is not re-verified here.
func (s *Seal) VerifyMemoized(ver sigs.Verifier, memo *sigs.VerifyMemo) error {
	if err := memo.Verify(ver, s.Prover, s.SignedBytes(), s.Sig); err != nil {
		return fmt.Errorf("engine: seal: %w", err)
	}
	return nil
}

// GossipTopic returns the topic under which neighbors gossip this seal
// for equivocation detection: (prover, epoch, window, shard index). The
// layout (Shards) is deliberately not part of the topic — it is part of
// the signed payload instead, so two seal sets for one epoch with
// different shard counts collide on the shard-0 topic (every layout
// publishes a shard-0 seal, empty or not) with differing payloads: a
// provable equivocation. Within one layout, two different roots for the
// same shard and window conflict the same way. The window IS part of the
// topic: a dirty-shard re-seal after a route change legitimately carries
// a new root, and must not collide with the previous window's statement.
func (s *Seal) GossipTopic() string {
	return fmt.Sprintf("seal/%d/%d.%d/%d", uint32(s.Prover), s.Epoch, s.Window, s.Shard)
}

// Statement packages the seal for the audit network.
func (s *Seal) Statement() gossip.Statement {
	return gossip.Statement{
		Origin:  s.Prover,
		Topic:   s.GossipTopic(),
		Payload: s.SignedBytes(),
		Sig:     s.Sig,
	}
}

// MarshalBinary encodes the seal including its signature, for shipping in
// BGP update attachments (cmd/pvrd).
func (s *Seal) MarshalBinary() ([]byte, error) {
	body := s.SignedBytes()
	out := make([]byte, 0, 4+len(body)+len(s.Sig))
	var u [4]byte
	binary.BigEndian.PutUint32(u[:], uint32(len(body)))
	out = append(out, u[:]...)
	out = append(out, body...)
	return append(out, s.Sig...), nil
}

// UnmarshalBinary decodes the MarshalBinary encoding.
func (s *Seal) UnmarshalBinary(b []byte) error {
	if len(b) < 4 {
		return fmt.Errorf("engine: short seal encoding")
	}
	n := int(binary.BigEndian.Uint32(b))
	b = b[4:]
	want := len(tagSeal) + 8 + 8 + 4*4 + merkle.HashSize
	if n != want || len(b) < n {
		return fmt.Errorf("engine: malformed seal encoding")
	}
	body, sig := b[:n], b[n:]
	if string(body[:len(tagSeal)]) != tagSeal {
		return fmt.Errorf("engine: seal tag mismatch")
	}
	body = body[len(tagSeal):]
	s.Epoch = binary.BigEndian.Uint64(body)
	s.Window = binary.BigEndian.Uint64(body[8:])
	s.Prover = aspath.ASN(binary.BigEndian.Uint32(body[16:]))
	s.Shard = binary.BigEndian.Uint32(body[20:])
	s.Shards = binary.BigEndian.Uint32(body[24:])
	s.Count = binary.BigEndian.Uint32(body[28:])
	copy(s.Root[:], body[32:])
	s.Sig = append([]byte(nil), sig...)
	return nil
}

// SealedCommitment is a per-prefix commitment as published by the engine:
// the unsigned MinCommitment content, the Merkle inclusion proof binding
// its canonical bytes to the shard root, and the shard's signed seal.
// Verifying it establishes exactly what MinCommitment.Verify establishes
// for the singly-signed protocol: the prover vouches for this commitment
// in this epoch.
type SealedCommitment struct {
	MC    *core.MinCommitment
	Proof *merkle.BatchProof
	Seal  *Seal
	// ExportC, when HasExport, is the hiding commitment to the prefix's
	// export statement that the shard leaf carries after the commitment
	// bytes. The seal then authenticates the export too — no per-prefix
	// export signature — while neighbors holding only the commitment
	// learn nothing about the exported route.
	ExportC   commit.Commitment
	HasExport bool
	// ZKDigest, when HasZK, is the canonical digest of the Pedersen
	// bit-vector commitments (zkp.DigestCommitments) that the shard leaf
	// carries after the commitment and export-commitment bytes. The seal
	// then authenticates the Pedersen vector too, so third-party
	// zero-knowledge openings (internal/privplane) verify against the
	// same gossiped seal as every other disclosure.
	ZKDigest [32]byte
	HasZK    bool
}

// Verify authenticates the sealed commitment: seal signature, seal/content
// agreement, and Merkle inclusion of the commitment bytes under the root.
func (sc *SealedCommitment) Verify(ver sigs.Verifier) error {
	return sc.verify(func(s *Seal) error { return s.Verify(ver) })
}

// verify runs the content checks around an injected seal-signature check —
// the pipeline passes a memoized one so each distinct seal's signature is
// checked once per batch rather than once per leaf.
func (sc *SealedCommitment) verify(checkSeal func(*Seal) error) error {
	if sc.MC == nil || sc.Proof == nil || sc.Seal == nil {
		return fmt.Errorf("engine: incomplete sealed commitment")
	}
	if sc.MC.Prover != sc.Seal.Prover || sc.MC.Epoch != sc.Seal.Epoch {
		return fmt.Errorf("engine: commitment (%s, epoch %d) does not match seal (%s, epoch %d)",
			sc.MC.Prover, sc.MC.Epoch, sc.Seal.Prover, sc.Seal.Epoch)
	}
	if sc.Seal.Shard >= sc.Seal.Shards {
		return fmt.Errorf("engine: seal shard %d out of range for %d shards", sc.Seal.Shard, sc.Seal.Shards)
	}
	// Recompute the prefix -> shard mapping: the commitment must live in
	// the shard its prefix hashes to, or one prefix could be committed
	// twice in one seal set without the two commitments ever sharing a
	// gossip topic.
	want, err := ShardIndexFor(sc.MC.Prefix, sc.Seal.Shards)
	if err != nil {
		return err
	}
	if want != sc.Seal.Shard {
		return fmt.Errorf("engine: prefix %s maps to shard %d, commitment sealed in shard %d",
			sc.MC.Prefix, want, sc.Seal.Shard)
	}
	if err := checkSeal(sc.Seal); err != nil {
		return err
	}
	leaf, err := sc.MC.SignedBytes()
	if err != nil {
		return err
	}
	if sc.HasExport {
		leaf = append(leaf, sc.ExportC[:]...)
	}
	if sc.HasZK {
		leaf = append(leaf, sc.ZKDigest[:]...)
	}
	if err := merkle.VerifyBatch(sc.Seal.Root, leaf, sc.Proof); err != nil {
		return fmt.Errorf("engine: commitment not under shard root: %w", err)
	}
	return nil
}
