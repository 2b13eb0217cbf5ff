package discplane

import (
	"bytes"
	"net/netip"
	"testing"

	"pvr/internal/aspath"
	"pvr/internal/commit"
	"pvr/internal/core"
	"pvr/internal/engine"
	"pvr/internal/netx"
	"pvr/internal/obs"
	"pvr/internal/prefix"
	"pvr/internal/route"
	"pvr/internal/sigs"
)

// fuzzSeeds builds one valid encoding of each wire message (a query, all
// three view roles, a denial) to seed the corpora, plus hand-mangled
// variants covering the interesting rejection classes: malformed role,
// truncated proof, oversized element counts.
func fuzzSeeds(f *testing.F) (query []byte, views [][]byte, denial []byte) {
	f.Helper()
	reg := sigs.NewRegistry()
	signer, err := sigs.GenerateEd25519()
	if err != nil {
		f.Fatal(err)
	}
	prov, err := sigs.GenerateEd25519()
	if err != nil {
		f.Fatal(err)
	}
	reg.Register(64500, signer.Public())
	reg.Register(64601, prov.Public())
	pfx := prefix.MustParse("203.0.113.0/24")
	eng, err := engine.New(engine.Config{ASN: 64500, Signer: signer, Registry: reg, Shards: 2})
	if err != nil {
		f.Fatal(err)
	}
	eng.BeginEpoch(1)
	ann, err := core.NewAnnouncement(prov, 64601, 64500, 1, route.Route{
		Prefix: pfx, Path: aspath.New(64601, 65001),
		NextHop: netip.MustParseAddr("192.0.2.1"),
	})
	if err != nil {
		f.Fatal(err)
	}
	if err := eng.AcceptAnnouncement(ann, obs.TraceContext{}); err != nil {
		f.Fatal(err)
	}
	if _, err := eng.SealEpoch(); err != nil {
		f.Fatal(err)
	}

	q := &Query{Requester: 64601, Role: RoleProvider, Epoch: 1, Prefix: pfx}
	if err := q.Sign(prov); err != nil {
		f.Fatal(err)
	}
	query, err = q.Encode()
	if err != nil {
		f.Fatal(err)
	}

	sc, err := eng.Commitment(pfx)
	if err != nil {
		f.Fatal(err)
	}
	pv, err := eng.DiscloseToProvider(pfx, 64601)
	if err != nil {
		f.Fatal(err)
	}
	mv, err := eng.DiscloseToPromisee(pfx, 64999)
	if err != nil {
		f.Fatal(err)
	}
	// A sealed-export engine exercises the leaf-extension wire fields:
	// HasExport/ExportC in the common section, the opening in the
	// promisee section, and an unsigned export statement.
	seng, err := engine.New(engine.Config{ASN: 64500, Signer: signer, Registry: reg, Shards: 2, Promisee: 64999})
	if err != nil {
		f.Fatal(err)
	}
	seng.BeginEpoch(1)
	if err := seng.AcceptAnnouncement(ann, obs.TraceContext{}); err != nil {
		f.Fatal(err)
	}
	if _, err := seng.SealEpoch(); err != nil {
		f.Fatal(err)
	}
	smv, err := seng.DiscloseToPromisee(pfx, 64999)
	if err != nil {
		f.Fatal(err)
	}

	for _, v := range []*View{
		{Role: RoleObserver, Sealed: sc},
		{Role: RoleProvider, Sealed: pv.Sealed, Position: uint32(pv.Position), Opening: &pv.Opening},
		{Role: RolePromisee, Sealed: mv.Sealed, Openings: mv.Openings, Winner: mv.Winner, Export: &mv.Export},
		{Role: RolePromisee, Sealed: smv.Sealed, Openings: smv.Openings, Winner: smv.Winner,
			Export: &smv.Export, ExportOpening: &smv.ExportOpening},
	} {
		enc, err := v.Encode()
		if err != nil {
			f.Fatal(err)
		}
		views = append(views, enc)
	}
	denial = (&Denial{Code: DenyAccess, Detail: "not a promisee under α"}).Encode()
	return query, views, denial
}

// FuzzQueryWire fuzzes the DISCLOSE decoder: arbitrary bytes must never
// panic, and every successfully decoded query must re-encode to identical
// bytes (round-trip stability — the property the signature check and the
// server's α decision both rely on).
func FuzzQueryWire(f *testing.F) {
	query, _, _ := fuzzSeeds(f)
	f.Add(query)
	// Malformed role byte (offset 8, after the requester and prover u32s).
	mangled := append([]byte(nil), query...)
	mangled[8] = 0xEE
	f.Add(mangled)
	f.Add(query[:len(query)/2])
	f.Fuzz(func(t *testing.T, data []byte) {
		q, err := DecodeQuery(data)
		if err != nil {
			return
		}
		enc, err := q.Encode()
		if err != nil {
			t.Fatalf("decoded query does not re-encode: %v", err)
		}
		if !bytes.Equal(enc, data) {
			t.Fatalf("query round trip not stable: %x != %x", enc, data)
		}
	})
}

// FuzzViewWire fuzzes the VIEW decoder across all three role layouts:
// never panic, bound allocations, and stay round-trip stable.
func FuzzViewWire(f *testing.F) {
	_, views, _ := fuzzSeeds(f)
	for _, v := range views {
		f.Add(v)
		// Malformed role.
		mangled := append([]byte(nil), v...)
		mangled[0] = 0x7F
		f.Add(mangled)
		// Truncated proof: cut inside the Merkle proof region.
		f.Add(v[:len(v)-len(v)/3])
		// Oversized count: a huge openings count must be rejected by the
		// remaining-bytes bound, not allocated.
		f.Add(append(append([]byte(nil), v...), 0xFF, 0xFF, 0xFF, 0xFF))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > netx.MaxFrame {
			return // the framing layer rejects these before the decoder runs
		}
		v, err := DecodeView(data)
		if err != nil {
			return
		}
		enc, err := v.Encode()
		if err != nil {
			t.Fatalf("decoded view does not re-encode: %v", err)
		}
		if !bytes.Equal(enc, data) {
			t.Fatalf("view round trip not stable (role %s)", v.Role)
		}
	})
}

// FuzzDenialWire fuzzes the DENY decoder.
func FuzzDenialWire(f *testing.F) {
	_, _, denial := fuzzSeeds(f)
	f.Add(denial)
	f.Add([]byte{0xFF})
	f.Add(append([]byte{1, 0xFF, 0xFF, 0xFF, 0xFF}, bytes.Repeat([]byte{'x'}, 64)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := DecodeDenial(data)
		if err != nil {
			return
		}
		if !bytes.Equal(d.Encode(), data) {
			t.Fatal("denial round trip not stable")
		}
	})
}

// privFuzzSeeds builds valid encodings of the privacy-plane wire messages:
// a ring-signed anonymous query, an auditor view carrying the Pedersen
// vector and monotonicity proof, and a ZK-digest-bearing observer view.
func privFuzzSeeds(f *testing.F) (anon []byte, views [][]byte) {
	f.Helper()
	fx := newPrivFixture(f)
	q := &AnonQuery{Prover: proverASN, Epoch: 1, Prefix: fx.pfx,
		Position: uint32(fx.lengths[fx.ring[0]]), Ring: fx.ring}
	if err := q.Sign(fx.plane, fx.ringKey[fx.ring[0]]); err != nil {
		f.Fatal(err)
	}
	anon, err := q.Encode()
	if err != nil {
		f.Fatal(err)
	}
	vv, sc, err := fx.plane.VectorView(fx.pfx)
	if err != nil {
		f.Fatal(err)
	}
	for _, v := range []*View{
		{Role: RoleObserver, Sealed: sc},
		{Role: RoleAuditor, Sealed: sc, ZKCommitments: vv.Commitments, ZKProof: vv.Proof},
	} {
		enc, err := v.Encode()
		if err != nil {
			f.Fatal(err)
		}
		views = append(views, enc)
	}
	return anon, views
}

// FuzzAnonQueryWire fuzzes the DISCLOSE-ANON decoder: arbitrary bytes must
// never panic, and every decoded query must re-encode identically — the
// property the ring-signature check depends on, since the server verifies
// over the re-derived signed bytes.
func FuzzAnonQueryWire(f *testing.F) {
	anon, _ := privFuzzSeeds(f)
	f.Add(anon)
	// Mangled ring-signature bytes (the tail of the encoding).
	mangled := append([]byte(nil), anon...)
	mangled[len(mangled)-1] ^= 0xA5
	f.Add(mangled)
	// Non-canonical ring order: swap the first two ring entries (u32s right
	// after the ring count) so the decoder's canonical-order check trips.
	f.Add(anon[:len(anon)/2])
	f.Add(anon[:7])
	// Oversized ring count appended junk.
	f.Add(append(append([]byte(nil), anon...), 0xFF, 0xFF, 0xFF, 0xFF))
	f.Fuzz(func(t *testing.T, data []byte) {
		q, err := DecodeAnonQuery(data)
		if err != nil {
			return
		}
		if len(q.Ring) < 2 || len(q.Ring) > maxWireRing {
			t.Fatalf("decoder admitted ring of size %d", len(q.Ring))
		}
		for i := 1; i < len(q.Ring); i++ {
			if q.Ring[i-1] >= q.Ring[i] {
				t.Fatal("decoder admitted a non-canonical ring")
			}
		}
		enc, err := q.Encode()
		if err != nil {
			t.Fatalf("decoded anon query does not re-encode: %v", err)
		}
		if !bytes.Equal(enc, data) {
			t.Fatalf("anon query round trip not stable: %x != %x", enc, data)
		}
	})
}

// FuzzZKViewWire re-runs the view round-trip property seeded with the
// privacy-plane layouts: auditor views (Pedersen commitments + vector
// proof) and ZK-digest-bearing observer views. Truncations inside the
// commitment array and the proof region must be rejected, never panic.
func FuzzZKViewWire(f *testing.F) {
	_, views := privFuzzSeeds(f)
	for _, v := range views {
		f.Add(v)
		f.Add(v[:len(v)-len(v)/4]) // cut inside proof / commitments
		f.Add(v[:len(v)/2])
		mangled := append([]byte(nil), v...)
		mangled[0] = byte(RoleAuditor) + 1 // just past the valid role range
		f.Add(mangled)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > netx.MaxFrame {
			return
		}
		v, err := DecodeView(data)
		if err != nil {
			return
		}
		enc, err := v.Encode()
		if err != nil {
			t.Fatalf("decoded view does not re-encode: %v", err)
		}
		if !bytes.Equal(enc, data) {
			t.Fatalf("zk view round trip not stable (role %s)", v.Role)
		}
	})
}

// FuzzAnonPoolAliasing extends the netx pool-aliasing property to the
// DISCLOSE-ANON path: a frame sent with SendPooled (which recycles the
// encode buffer) must arrive intact even when the pools are churned and
// poisoned immediately after the send — i.e. the received payload never
// aliases pooled memory.
func FuzzAnonPoolAliasing(f *testing.F) {
	anon, _ := privFuzzSeeds(f)
	f.Add(anon)
	f.Add(anon[:len(anon)/2])
	f.Fuzz(func(t *testing.T, data []byte) {
		q, err := DecodeAnonQuery(data)
		if err != nil {
			return
		}
		enc, err := q.Encode()
		if err != nil {
			t.Fatal(err)
		}
		snap := append([]byte(nil), enc...)
		client, server := netx.Pipe()
		defer client.Close()
		defer server.Close()
		type recv struct {
			fr  netx.Frame
			err error
		}
		done := make(chan recv, 1)
		go func() {
			fr, err := server.Recv()
			done <- recv{fr, err}
		}()
		if err := netx.SendPooled(client, FrameDiscloseAnon, enc); err != nil {
			t.Fatal(err)
		}
		r := <-done
		if r.err != nil {
			t.Fatal(r.err)
		}
		// Poison the pools: grab buffers of the same size class, scribble
		// over their full capacity, and recycle them. If the received
		// payload aliased pooled memory, the scribble lands in it.
		for i := 0; i < 8; i++ {
			buf := netx.GetBuf(len(snap) + 5)
			buf = buf[:cap(buf)]
			for j := range buf {
				buf[j] = 0xEE
			}
			netx.PutBuf(buf)
		}
		if r.fr.Type != FrameDiscloseAnon {
			t.Fatalf("frame type %#x", r.fr.Type)
		}
		if !bytes.Equal(r.fr.Payload, snap) {
			t.Fatal("received anon query aliases pooled memory")
		}
		if _, err := DecodeAnonQuery(r.fr.Payload); err != nil {
			t.Fatalf("received anon query no longer decodes: %v", err)
		}
	})
}

// TestOpeningRoundTripForFuzzSanity pins that a legitimate opening
// survives the commit.Opening encoding the views embed — if this breaks,
// the fuzzers' round-trip property would be vacuous.
func TestOpeningRoundTripForFuzzSanity(t *testing.T) {
	var cm commit.Committer
	_, op, err := cm.CommitBit("tag", true)
	if err != nil {
		t.Fatal(err)
	}
	b, err := op.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var rt commit.Opening
	if err := rt.UnmarshalBinary(b); err != nil {
		t.Fatal(err)
	}
	if rt.Tag != op.Tag {
		t.Fatal("opening round trip mutated tag")
	}
}
