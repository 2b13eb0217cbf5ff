package main

// Layer probes: one layer's public functions driven in isolation with
// inputs shaped like the workloads'. They answer "what does this layer cost
// per operation on its own", which the composed run cannot, and they are
// the only file of the benchmark that reaches below the public pvr API.
// probes_test exposes the same bodies as go test benchmarks.

import (
	"crypto/rand"
	"crypto/rsa"
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"pvr/internal/aspath"
	"pvr/internal/auditnet"
	"pvr/internal/bgp"
	"pvr/internal/core"
	"pvr/internal/discplane"
	"pvr/internal/engine"
	"pvr/internal/merkle"
	"pvr/internal/netx"
	"pvr/internal/privplane"
	"pvr/internal/ringsig"
	"pvr/internal/route"
	"pvr/internal/sigs"
	"pvr/internal/store"
	"pvr/internal/updplane"
	"pvr/internal/zkp"
)

const (
	probeProver   aspath.ASN = 64500
	probeProvider aspath.ASN = 64510
	// probeShard is the number of leaves in one shard of the 8192-prefix,
	// 8-shard table the update workloads run on.
	probeShard = 1024
)

// probeEnv is the probes' shared fixture: a prover identity, a provider
// identity, and the provider's signed announcements, one per prefix of the
// benchmark's universe.
type probeEnv struct {
	reg      *sigs.Registry
	prover   sigs.Signer
	provider sigs.Signer
	anns     []core.Announcement
	// scratch is where the store probe puts its WAL.
	scratch string
}

func newProbeEnv(n int, scratch string) (*probeEnv, error) {
	e := &probeEnv{reg: sigs.NewRegistry(), scratch: scratch}
	var err error
	if e.prover, err = sigs.GenerateEd25519(); err != nil {
		return nil, err
	}
	if e.provider, err = sigs.GenerateEd25519(); err != nil {
		return nil, err
	}
	e.reg.Register(probeProver, e.prover.Public())
	e.reg.Register(probeProvider, e.provider.Public())
	pfxs := universe(n)
	e.anns = make([]core.Announcement, n)
	for i := range e.anns {
		r := inputRoute(pfxs[i], probeProvider, 2+i%(maxPathLen-1))
		if e.anns[i], err = core.NewAnnouncement(e.provider, probeProvider, probeProver, epoch, r); err != nil {
			return nil, err
		}
	}
	return e, nil
}

func (e *probeEnv) newEngine() (*engine.ProverEngine, error) {
	eng, err := engine.New(engine.Config{ASN: probeProver, Signer: e.prover, Registry: e.reg, Shards: 8})
	if err != nil {
		return nil, err
	}
	eng.BeginEpoch(epoch)
	return eng, nil
}

// sealedEngine is an engine that has accepted and sealed every announcement.
func (e *probeEnv) sealedEngine() (*engine.ProverEngine, error) {
	eng, err := e.newEngine()
	if err != nil {
		return nil, err
	}
	if _, err := eng.AcceptAll(e.anns, nproc()); err != nil {
		return nil, err
	}
	_, err = eng.SealEpoch()
	return eng, err
}

// timeOp runs fn n times and returns the mean ns and mean heap allocations
// per call.
func timeOp(n int, fn func(i int) error) (ns, allocs float64, err error) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		if err := fn(i); err != nil {
			return 0, 0, err
		}
	}
	d := time.Since(t0)
	runtime.ReadMemStats(&m1)
	return float64(d) / float64(n), float64(m1.Mallocs-m0.Mallocs) / float64(n), nil
}

// A probe runs its layer's operation n times and reports named results.
type probe struct {
	layer string
	run   func(e *probeEnv, n int, out map[string]float64) error
}

var probes = []probe{
	{"netx", probeNetx}, {"bgp", probeBGP}, {"sigs", probeSigs}, {"merkle", probeMerkle},
	{"engine", probeEngine}, {"updplane", probeUpdplane}, {"store", probeStore},
	{"auditnet", probeAuditnet}, {"discplane", probeDiscplane}, {"privplane", probePriv},
}

// probed holds the probes' results once they have run: they measure the
// layers, not a workload, so one process runs them once however many
// workloads it traces.
var probed struct {
	once sync.Once
	out  map[string]float64
	err  error
}

// runProbes runs every layer probe at n iterations (fewer for the slow
// ones) and returns the per-layer probe metrics by name.
func runProbes(n int, scratch string) (map[string]float64, error) {
	probed.once.Do(func() {
		e, err := newProbeEnv(probeShard, scratch)
		if err != nil {
			probed.err = err
			return
		}
		probed.out = make(map[string]float64)
		for _, p := range probes {
			if err := p.run(e, n, probed.out); err != nil {
				probed.err = fmt.Errorf("%s probe: %w", p.layer, err)
				return
			}
		}
	})
	return probed.out, probed.err
}

// probeNetx sends one UPDATE-sized frame across netx.Pipe and reads it
// back: AppendFrame, the pipe hand-off, ReadFrame.
func probeNetx(_ *probeEnv, n int, out map[string]float64) error {
	a, b := netx.Pipe()
	defer a.Close()
	defer b.Close()
	payload := make([]byte, 1400)
	errc := make(chan error, 1)
	go func() {
		for i := 0; i < n; i++ {
			if _, err := b.Recv(); err != nil {
				errc <- err
				return
			}
		}
		errc <- nil
	}()
	ns, allocs, err := timeOp(n, func(int) error { return a.Send(netx.Frame{Type: 2, Payload: payload}) })
	if rerr := <-errc; err == nil {
		err = rerr
	}
	out["netx.probe_frame_ns"], out["netx.probe_frame_allocs"] = ns, allocs
	return err
}

// probeBGP encodes one UPDATE carrying a route and attachments the size of
// a sealed commitment chain.
func probeBGP(e *probeEnv, n int, out map[string]float64) error {
	u := bgp.Update{
		Announced: []route.Route{e.anns[0].Route},
		Attachments: map[string][]byte{
			"pvr/sig": make([]byte, 64), "pvr/mc": make([]byte, 700), "pvr/proof": make([]byte, 340),
			"pvr/seal": make([]byte, 140), "pvr/key": make([]byte, 33),
		},
	}
	var buf []byte
	ns, _, err := timeOp(n, func(int) error {
		var err error
		buf, err = u.AppendBinary(buf[:0])
		return err
	})
	out["bgp.probe_update_encode_ns"] = ns
	return err
}

// probeSigs signs and verifies announcement-sized messages one at a time
// and in cofactored batches of 64.
func probeSigs(e *probeEnv, n int, out map[string]float64) error {
	msg := make([]byte, 96)
	var sig []byte
	ns, _, err := timeOp(n, func(int) error {
		var err error
		sig, err = e.provider.Sign(msg)
		return err
	})
	if err != nil {
		return err
	}
	out["sigs.probe_sign_ns"] = ns
	ns, _, err = timeOp(n, func(int) error { return e.reg.Verify(probeProvider, msg, sig) })
	if err != nil {
		return err
	}
	out["sigs.probe_single_verify_ns"] = ns
	const batch = 64
	ns, _, err = timeOp(max(1, n/batch), func(int) error {
		bv := sigs.NewBatchVerifier(e.reg)
		for i := 0; i < batch; i++ {
			bv.Add(probeProvider, msg, sig)
		}
		for _, err := range bv.Flush(1) {
			if err != nil {
				return err
			}
		}
		return nil
	})
	out["sigs.probe_batch64_ns_per_sig"] = ns / batch
	return err
}

// probeMerkle builds the Merkle batch of one shard's leaves and verifies
// one inclusion proof, as a shard seal and its verifier do.
func probeMerkle(_ *probeEnv, n int, out map[string]float64) error {
	leaves := make([][]byte, probeShard)
	for i := range leaves {
		leaves[i] = make([]byte, 700)
		leaves[i][0], leaves[i][1] = byte(i), byte(i>>8)
	}
	var b *merkle.Batch
	ns, _, err := timeOp(max(1, n/probeShard), func(int) error {
		var err error
		b, err = merkle.NewBatch(leaves)
		return err
	})
	if err != nil {
		return err
	}
	out["merkle.probe_build_ns_per_leaf"] = ns / probeShard
	proof, err := b.Prove(7)
	if err != nil {
		return err
	}
	ns, _, err = timeOp(n, func(int) error { return merkle.VerifyBatch(b.Root(), leaves[7], proof) })
	out["merkle.probe_verify_proof_ns"] = ns
	return err
}

// probeEngine accepts one shard's worth of announcements into a fresh
// engine (batch-verified) and seals the epoch.
func probeEngine(e *probeEnv, _ int, out map[string]float64) error {
	eng, err := e.newEngine()
	if err != nil {
		return err
	}
	t0 := time.Now()
	if _, err := eng.AcceptAll(e.anns, nproc()); err != nil {
		return err
	}
	out["engine.probe_accept_ns_per_event"] = float64(time.Since(t0)) / float64(len(e.anns))
	_, err = eng.SealEpoch()
	return err
}

// probeUpdplane streams the announcements through a plane over a fresh
// engine and seals them as one window.
func probeUpdplane(e *probeEnv, _ int, out map[string]float64) error {
	eng, err := e.newEngine()
	if err != nil {
		return err
	}
	plane, err := updplane.New(updplane.Config{Engine: eng})
	if err != nil {
		return err
	}
	defer plane.Close()
	t0 := time.Now()
	for _, a := range e.anns {
		if err := plane.Submit(updplane.AnnounceEvent(probeProvider, a)); err != nil {
			return err
		}
	}
	if _, err := plane.Flush(); err != nil {
		return err
	}
	out["updplane.probe_window_ns_per_event"] = float64(time.Since(t0)) / float64(len(e.anns))
	return nil
}

// probeStore appends and syncs window-sized records to a file-backed WAL,
// one commit per append, as the write-ahead of a window does.
func probeStore(e *probeEnv, n int, out map[string]float64) error {
	dir, err := scratchDir(e.scratch, "probe-store")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	bk, err := store.NewFileBackend(dir)
	if err != nil {
		return err
	}
	st, _, err := store.Open(bk, store.Options{})
	if err != nil {
		return err
	}
	rec := make([]byte, 24)
	ns, _, err := timeOp(max(1, n/8), func(int) error { return st.Append(1, rec) })
	out["store.probe_append_sync_us"] = ns / 1e3
	if cerr := st.Close(); err == nil {
		err = cerr
	}
	return err
}

// probeAuditnet files a sealed engine's statements with one auditor and
// reconciles an empty one against it over a pipe: one anti-entropy round
// that ships every statement.
func probeAuditnet(e *probeEnv, _ int, out map[string]float64) error {
	eng, err := e.sealedEngine()
	if err != nil {
		return err
	}
	full, err := auditnet.New(auditnet.Config{ASN: probeProver, Registry: e.reg})
	if err != nil {
		return err
	}
	empty, err := auditnet.New(auditnet.Config{ASN: probeProvider, Registry: e.reg})
	if err != nil {
		return err
	}
	for _, s := range eng.Seals() {
		if _, _, err := full.AddRecord(auditnet.Record{Epoch: s.Epoch, S: s.Statement()}); err != nil {
			return err
		}
	}
	a, b := netx.Pipe()
	defer a.Close()
	defer b.Close()
	errc := make(chan error, 1)
	go func() {
		_, err := full.Respond(b)
		errc <- err
	}()
	t0 := time.Now()
	st, err := empty.Reconcile(a)
	if rerr := <-errc; err == nil {
		err = rerr
	}
	if err != nil {
		return err
	}
	out["auditnet.probe_round_us"] = us(time.Since(t0))
	if st.NewStatements != len(eng.Seals()) {
		return fmt.Errorf("round moved %d statements, want %d", st.NewStatements, len(eng.Seals()))
	}
	return nil
}

// probeDiscplane serves observer views of a sealed table to a client over
// one pipe: sign, DISCLOSE, serve, VIEW, decode — no dial, no verification.
func probeDiscplane(e *probeEnv, n int, out map[string]float64) error {
	eng, err := e.sealedEngine()
	if err != nil {
		return err
	}
	srv, err := discplane.NewServer(discplane.Config{ASN: probeProver, Engine: eng, Registry: e.reg})
	if err != nil {
		return err
	}
	a, b := netx.Pipe()
	defer a.Close()
	go func() {
		defer b.Close()
		for srv.Respond(b) == nil {
		}
	}()
	ns, _, err := timeOp(n, func(i int) error {
		q := &discplane.Query{
			Requester: probeProvider, Prover: probeProver, Role: discplane.RoleObserver,
			Epoch: epoch, Prefix: e.anns[i%len(e.anns)].Route.Prefix,
		}
		if err := q.Sign(e.provider); err != nil {
			return err
		}
		_, err := discplane.Fetch(a, q)
		return err
	})
	out["discplane.probe_fetch_us"] = ns / 1e3
	return err
}

// probePriv proves and verifies one monotone Pedersen vector of the
// privacy workload's length, and ring-signs and verifies over a ring of
// the workload's size.
func probePriv(_ *probeEnv, n int, out map[string]float64) error {
	bits := make([]bool, privMaxLen)
	for i := 3; i < len(bits); i++ {
		bits[i] = true
	}
	cs, os, err := zkp.CommitBits(bits)
	if err != nil {
		return err
	}
	out["privplane.commitment_bytes"] = float64(len(zkp.MarshalCommitments(cs)))
	ctx := []byte("pvr/bench/probe")
	t0 := time.Now()
	vp, err := zkp.ProveVector(cs, os, ctx)
	if err != nil {
		return err
	}
	out["privplane.probe_prove_ms"] = ms(time.Since(t0))
	t0 = time.Now()
	if err := zkp.VerifyVector(cs, vp, ctx); err != nil {
		return err
	}
	out["privplane.probe_verify_ms"] = ms(time.Since(t0))

	keys := make([]*rsa.PrivateKey, privProviders)
	pubs := make([]*rsa.PublicKey, privProviders)
	for i := range keys {
		if keys[i], err = rsa.GenerateKey(rand.Reader, privplane.RingKeyBits); err != nil {
			return err
		}
		pubs[i] = &keys[i].PublicKey
	}
	ring, err := ringsig.NewRing(pubs)
	if err != nil {
		return err
	}
	msg := make([]byte, 96)
	var sig *ringsig.Signature
	ns, _, err := timeOp(max(1, n/64), func(int) error {
		var err error
		sig, err = ring.Sign(msg, keys[1])
		return err
	})
	if err != nil {
		return err
	}
	out["privplane.probe_ring_sign_us"] = ns / 1e3
	ns, _, err = timeOp(max(1, n/64), func(int) error { return ring.Verify(msg, sig) })
	out["privplane.probe_ring_verify_us"] = ns / 1e3
	return err
}
