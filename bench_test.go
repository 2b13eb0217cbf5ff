// Benchmarks regenerating the paper's quantitative claims, one family per
// experiment in EXPERIMENTS.md. Run with:
//
//	go test -bench=. -benchmem .
//
// E1  BenchmarkFig1MinProtocol    — §3.3 protocol cost vs number of providers
// E2  BenchmarkFig2GraphProtocol  — §3.5–3.7 graph commit + disclose + verify
// E3  BenchmarkSMCMin / BenchmarkPVRMinEpoch — §3.1 SMC strawman vs PVR
// E4  BenchmarkZKPMonotone        — §3.1 ZKP strawman scaling in policy size
// E5  BenchmarkRSA1024Sign etc.   — §3.8 primitive costs
// E6  BenchmarkBatchSigning       — §3.8 batching amortization
// E9  BenchmarkRingSign           — §3.2 ring signatures for link-state
package pvr_test

import (
	"crypto/rand"
	"crypto/rsa"
	"crypto/sha256"
	"fmt"
	"net/netip"
	"runtime"
	"testing"

	"pvr/internal/aspath"
	"pvr/internal/core"
	"pvr/internal/engine"
	"pvr/internal/merkle"
	"pvr/internal/prefix"
	"pvr/internal/rfg"
	"pvr/internal/ringsig"
	"pvr/internal/route"
	"pvr/internal/sigs"
	"pvr/internal/smc"
	"pvr/internal/zkp"
)

// --- shared fixtures (keys are expensive; build once) ---

type benchEnv struct {
	reg     *sigs.Registry
	signers map[aspath.ASN]sigs.Signer
	pfx     prefix.Prefix
}

var envCache *benchEnv

func env(b *testing.B) *benchEnv {
	b.Helper()
	if envCache != nil {
		return envCache
	}
	e := &benchEnv{
		reg:     sigs.NewRegistry(),
		signers: map[aspath.ASN]sigs.Signer{},
		pfx:     prefix.MustParse("203.0.113.0/24"),
	}
	for asn := aspath.ASN(100); asn < 200; asn++ {
		s, err := sigs.GenerateEd25519()
		if err != nil {
			b.Fatal(err)
		}
		e.signers[asn] = s
		e.reg.Register(asn, s.Public())
	}
	envCache = e
	return e
}

func (e *benchEnv) announce(b *testing.B, from aspath.ASN, epoch uint64, length int) core.Announcement {
	b.Helper()
	asns := make([]aspath.ASN, length)
	asns[0] = from
	for i := 1; i < length; i++ {
		asns[i] = aspath.ASN(65000 + i)
	}
	r := route.Route{
		Prefix:  e.pfx,
		Path:    aspath.New(asns...),
		NextHop: netip.AddrFrom4([4]byte{10, 0, 0, 1}),
	}
	ann, err := core.NewAnnouncement(e.signers[from], from, 100, epoch, r)
	if err != nil {
		b.Fatal(err)
	}
	return ann
}

// runMinEpoch executes one full §3.3 epoch: accept k announcements,
// commit, disclose to everyone, and verify every view.
func runMinEpoch(b *testing.B, e *benchEnv, k, maxLen int, epoch uint64) {
	b.Helper()
	p, err := core.NewProver(100, e.signers[100], e.reg, maxLen)
	if err != nil {
		b.Fatal(err)
	}
	p.BeginEpoch(epoch, e.pfx)
	anns := make([]core.Announcement, k)
	for i := 0; i < k; i++ {
		anns[i] = e.announce(b, aspath.ASN(101+i), epoch, 1+(i%maxLen))
		if _, err := p.AcceptAnnouncement(anns[i]); err != nil {
			b.Fatal(err)
		}
	}
	if _, err := p.CommitMin(); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < k; i++ {
		v, err := p.DiscloseToProvider(aspath.ASN(101 + i))
		if err != nil {
			b.Fatal(err)
		}
		if err := core.VerifyProviderView(e.reg, v, anns[i]); err != nil {
			b.Fatal(err)
		}
	}
	pv, err := p.DiscloseToPromisee(199)
	if err != nil {
		b.Fatal(err)
	}
	if err := core.VerifyPromiseeView(e.reg, pv); err != nil {
		b.Fatal(err)
	}
}

// E1: full minimum-operator protocol cost as the provider count grows.
func BenchmarkFig1MinProtocol(b *testing.B) {
	e := env(b)
	for _, k := range []int{2, 5, 10, 20, 50} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				runMinEpoch(b, e, k, 32, uint64(i+1))
			}
		})
	}
}

// E2: graph commitment, selective disclosure, and verification for the
// Fig. 2 multi-operator graph.
func BenchmarkFig2GraphProtocol(b *testing.B) {
	e := env(b)
	for _, k := range []int{3, 5, 10, 20} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			g, ins, outVar, err := rfg.Fig2(k)
			if err != nil {
				b.Fatal(err)
			}
			access := rfg.NewAccess()
			access.AllowAll(199, outVar.Label())
			inputs := map[rfg.VarID][]route.Route{
				ins[0]: {e.announce(b, 101, 1, 4).Route},
				ins[1]: {e.announce(b, 102, 1, 2).Route},
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				gp := core.NewGraphProver(100, e.signers[100], g, access)
				gc, err := gp.Commit(uint64(i+1), inputs)
				if err != nil {
					b.Fatal(err)
				}
				d, err := gp.Disclose(199, outVar.Label())
				if err != nil {
					b.Fatal(err)
				}
				if _, err := core.VerifyVertexDisclosure(e.reg, gc, d); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// E3: the SMC strawman (live protocol) at the paper's 5-player point and a
// sweep, against one full PVR epoch on the same inputs.
func BenchmarkSMCMin(b *testing.B) {
	for _, k := range []int{2, 5, 10} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			parties := make([]*smc.Party, k)
			for i := range parties {
				p, err := smc.NewParty(i, 1+i%smc.Domain, 1024)
				if err != nil {
					b.Fatal(err)
				}
				parties[i] = p
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, _, err := smc.SecureMin(parties); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// E3 counterpart: PVR on the same task shape (5 providers).
func BenchmarkPVRMinEpoch(b *testing.B) {
	e := env(b)
	for i := 0; i < b.N; i++ {
		runMinEpoch(b, e, 5, 32, uint64(i+1))
	}
}

// E4: ZKP strawman cost vs policy size (bit-vector length).
func BenchmarkZKPMonotone(b *testing.B) {
	for _, k := range []int{8, 16, 32, 64} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			bits := make([]bool, k)
			for i := k / 2; i < k; i++ {
				bits[i] = true
			}
			cs, os, err := zkp.CommitBits(bits)
			if err != nil {
				b.Fatal(err)
			}
			ctx := []byte("bench")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mp, err := zkp.ProveMonotone(cs, os, k/2+1, ctx)
				if err != nil {
					b.Fatal(err)
				}
				if err := zkp.VerifyMonotone(cs, mp, ctx); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// E5: primitive costs underlying §3.8's overhead argument.
func BenchmarkSHA256(b *testing.B) {
	msg := make([]byte, 1024)
	b.SetBytes(1024)
	for i := 0; i < b.N; i++ {
		sha256.Sum256(msg)
	}
}

func benchSign(b *testing.B, s sigs.Signer) {
	b.Helper()
	msg := []byte("update: 203.0.113.0/24 via AS64500, epoch 12345")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Sign(msg); err != nil {
			b.Fatal(err)
		}
	}
}

func benchVerify(b *testing.B, s sigs.Signer) {
	b.Helper()
	msg := []byte("update: 203.0.113.0/24 via AS64500, epoch 12345")
	sig, err := s.Sign(msg)
	if err != nil {
		b.Fatal(err)
	}
	pub := s.Public()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := pub.Verify(msg, sig); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRSA1024Sign measures the paper's headline primitive ("A
// RSA-1024 signature takes about two milliseconds on current hardware").
func BenchmarkRSA1024Sign(b *testing.B) {
	s, err := sigs.GenerateRSA(1024)
	if err != nil {
		b.Fatal(err)
	}
	benchSign(b, s)
}

func BenchmarkRSA1024Verify(b *testing.B) {
	s, err := sigs.GenerateRSA(1024)
	if err != nil {
		b.Fatal(err)
	}
	benchVerify(b, s)
}

func BenchmarkRSA2048Sign(b *testing.B) {
	s, err := sigs.GenerateRSA(2048)
	if err != nil {
		b.Fatal(err)
	}
	benchSign(b, s)
}

func BenchmarkEd25519Sign(b *testing.B) {
	s, err := sigs.GenerateEd25519()
	if err != nil {
		b.Fatal(err)
	}
	benchSign(b, s)
}

func BenchmarkEd25519Verify(b *testing.B) {
	s, err := sigs.GenerateEd25519()
	if err != nil {
		b.Fatal(err)
	}
	benchVerify(b, s)
}

// E6: batch signing — per-update cost vs batch size (§3.8: "sign messages
// in batches, perhaps using a small MHT to reveal batched routes
// individually").
func BenchmarkBatchSigning(b *testing.B) {
	s, err := sigs.GenerateRSA(1024)
	if err != nil {
		b.Fatal(err)
	}
	for _, batch := range []int{1, 4, 16, 64, 256, 1024} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			msgs := make([][]byte, batch)
			for i := range msgs {
				msgs[i] = []byte(fmt.Sprintf("update-%d: 203.0.113.0/24 path 64500 6550%d", i, i))
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// One signature per batch + one audit path per update.
				mt, err := merkle.NewBatch(msgs)
				if err != nil {
					b.Fatal(err)
				}
				root := mt.Root()
				if _, err := s.Sign(root[:]); err != nil {
					b.Fatal(err)
				}
				for j := range msgs {
					if _, err := mt.Prove(j); err != nil {
						b.Fatal(err)
					}
				}
			}
			// Report per-update cost, the number §3.8 cares about.
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/update")
		})
	}
}

// E10: sharded multi-prefix engine vs the equivalent loop of
// single-prefix provers, one full epoch over a 1k-prefix table: accept
// every announcement, commit every prefix, verify every promisee view.
// The serial variant is the pre-engine architecture (one core.Prover per
// prefix, one commitment signature each, sequential verification); the
// engine variant shards state, ingests concurrently, signs one Merkle
// root per shard, and verifies through the worker pipeline. On a
// multi-core machine the engine sustains well over 2x the serial
// throughput (on one core the two converge, minus the signature
// amortization).
func BenchmarkEngineThroughput(b *testing.B) {
	e := env(b)
	const (
		nPfx   = 1000
		k      = 2
		maxLen = 16
		epoch  = uint64(1)
	)
	prover, promisee := aspath.ASN(100), aspath.ASN(199)
	pfxs := make([]prefix.Prefix, nPfx)
	anns := make([]core.Announcement, 0, nPfx*k)
	for i := range pfxs {
		pfxs[i] = prefix.V4(10, byte(i>>8), byte(i), 0, 24)
		for j := 0; j < k; j++ {
			from := aspath.ASN(101 + j)
			asns := make([]aspath.ASN, 1+(i+j)%maxLen)
			asns[0] = from
			for l := 1; l < len(asns); l++ {
				asns[l] = aspath.ASN(65000 + l)
			}
			ann, err := core.NewAnnouncement(e.signers[from], from, prover, epoch, route.Route{
				Prefix:  pfxs[i],
				Path:    aspath.New(asns...),
				NextHop: netip.AddrFrom4([4]byte{10, 0, 0, 1}),
			})
			if err != nil {
				b.Fatal(err)
			}
			anns = append(anns, ann)
		}
	}

	b.Run("serial-provers", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			provers := make(map[prefix.Prefix]*core.Prover, nPfx)
			for _, a := range anns {
				p := provers[a.Route.Prefix]
				if p == nil {
					var err error
					if p, err = core.NewProver(prover, e.signers[prover], e.reg, maxLen); err != nil {
						b.Fatal(err)
					}
					p.BeginEpoch(epoch, a.Route.Prefix)
					provers[a.Route.Prefix] = p
				}
				if _, err := p.AcceptAnnouncement(a); err != nil {
					b.Fatal(err)
				}
			}
			for _, pfx := range pfxs {
				p := provers[pfx]
				if _, err := p.CommitMin(); err != nil {
					b.Fatal(err)
				}
				v, err := p.DiscloseToPromisee(promisee)
				if err != nil {
					b.Fatal(err)
				}
				if err := core.VerifyPromiseeView(e.reg, v); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.ReportMetric(float64(nPfx)*float64(b.N)/b.Elapsed().Seconds(), "prefixes/s")
	})

	b.Run("engine", func(b *testing.B) {
		writers := runtime.GOMAXPROCS(0)
		for i := 0; i < b.N; i++ {
			eng, err := engine.New(engine.Config{
				ASN: prover, Signer: e.signers[prover], Registry: e.reg, MaxLen: maxLen,
				Promisee: promisee,
			})
			if err != nil {
				b.Fatal(err)
			}
			eng.BeginEpoch(epoch)
			if _, err := eng.AcceptAll(anns, writers); err != nil {
				b.Fatal(err)
			}
			if _, err := eng.SealEpoch(); err != nil {
				b.Fatal(err)
			}
			pl := engine.NewPipeline(e.reg, writers)
			for _, pfx := range pfxs {
				v, err := eng.DiscloseToPromisee(pfx, promisee)
				if err != nil {
					b.Fatal(err)
				}
				pl.SubmitPromisee(v, promisee)
			}
			for _, r := range pl.Drain() {
				if r.Err != nil {
					b.Fatalf("%s: %v", r.Prefix, r.Err)
				}
			}
		}
		b.ReportMetric(float64(nPfx)*float64(b.N)/b.Elapsed().Seconds(), "prefixes/s")
	})
}

// E9: ring signatures for the link-state variant of §3.2.
func BenchmarkRingSign(b *testing.B) {
	keys := make([]*rsa.PrivateKey, 32)
	for i := range keys {
		k, err := rsa.GenerateKey(rand.Reader, 1024)
		if err != nil {
			b.Fatal(err)
		}
		keys[i] = k
	}
	for _, n := range []int{2, 4, 8, 16, 32} {
		b.Run(fmt.Sprintf("ring=%d", n), func(b *testing.B) {
			pubs := make([]*rsa.PublicKey, n)
			for i := 0; i < n; i++ {
				pubs[i] = &keys[i].PublicKey
			}
			ring, err := ringsig.NewRing(pubs)
			if err != nil {
				b.Fatal(err)
			}
			msg := []byte("a route exists")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sig, err := ring.Sign(msg, keys[0])
				if err != nil {
					b.Fatal(err)
				}
				if err := ring.Verify(msg, sig); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
