package main

import (
	"context"
	"errors"
	"fmt"
	"net/netip"
	"os"

	"pvr"
)

// AS numbers of the fleet. A's synthetic upstream is A+1000 (WithOriginate),
// so nothing here may collide with 65500.
const (
	asnA pvr.ASN = 64500 // prover under test: originates, seals, serves
	asnB pvr.ASN = 64501 // A's BGP neighbour and declared promisee
	asnC pvr.ASN = 64502 // pure auditor: gossip only
	asnO pvr.ASN = 64503 // observer: third-party queries
	asnU pvr.ASN = 64504 // unentitled: asks for what α refuses
	asnP pvr.ASN = 64510 // first provider; provider i is asnP+i
)

// epoch is the only epoch the benchmark runs in: windows advance, the
// epoch does not, which is how a Participant behaves between re-keyings.
const epoch = 1

// fleetSpec sizes one fleet. Every workload gets the same six roles wired
// the same way; only the sizes and A's sealing options differ.
type fleetSpec struct {
	prefixes  int  // size of A's originated table
	providers int  // provider participants P0..Pn-1
	maxLen    int  // §3.3 vector length (0 = the Participant default, 32)
	zk        bool // A seals with WithZKDisclosure
	store     bool // A runs on a file-backed WithStore
}

// keys are the long-lived identities a run keeps across its repeated
// set-ups: RSA ring-key generation takes 50–500 ms with a heavy tail and
// belongs to no set-up path a later change could speed up or slow down.
type keys struct {
	providers []pvr.Signer
	ring      []*pvr.RingKey
	// outsider is U's ring key: registered in the directory, yet never a
	// provider, so a ring that names U must be refused.
	outsider *pvr.RingKey
}

func newKeys(spec fleetSpec) (*keys, error) {
	k := &keys{}
	for i := 0; i < spec.providers; i++ {
		s, err := pvr.GenerateEd25519()
		if err != nil {
			return nil, err
		}
		k.providers = append(k.providers, s)
		if spec.zk {
			rk, err := pvr.GenerateRingKey(asnP + pvr.ASN(i))
			if err != nil {
				return nil, err
			}
			k.ring = append(k.ring, rk)
		}
	}
	if spec.zk {
		var err error
		if k.outsider, err = pvr.GenerateRingKey(asnU); err != nil {
			return nil, err
		}
	}
	return k, nil
}

// fleet is the composed system under test: real Participants over one
// in-process transport, driven only through the public pvr API.
type fleet struct {
	tr   *countingTransport
	pfxs []pvr.Prefix

	A, B, C, O, U *pvr.Participant
	P             []*pvr.Participant

	// verified and updates are what B's counters must read: see
	// waitVerified.
	verified, updates uint64

	// storeDir is A's file-backed store, if it has one. Close removes it.
	storeDir string
}

const (
	addrBGP    = "a-bgp"
	addrGossip = "a-gossip"
	addrDisc   = "a-disc"
)

// buildFleet opens A/P/B/C/O/U and returns once B has verified A's whole
// sealed table over the BGP session. A file-backed store goes into a fresh
// directory under scratch.
func buildFleet(ctx context.Context, spec fleetSpec, k *keys, scratch string) (f *fleet, err error) {
	f = &fleet{tr: newCountingTransport(pvr.NewMemTransport()), pfxs: universe(spec.prefixes)}
	defer func() {
		if err != nil {
			f.Close()
			f = nil
		}
	}()
	reg := pvr.NewRegistry()
	rd := pvr.NewRingDirectory()
	common := []pvr.Option{
		pvr.WithTransport(f.tr), pvr.WithRegistry(reg), pvr.WithRingDirectory(rd), pvr.WithHoldTime(0),
	}
	open := func(asn pvr.ASN, opts ...pvr.Option) (*pvr.Participant, error) {
		all := append([]pvr.Option{pvr.WithASN(asn)}, common...)
		p, err := pvr.Open(ctx, append(all, opts...)...)
		if err != nil {
			return nil, fmt.Errorf("open %s: %w", asn, err)
		}
		return p, nil
	}

	aOpts := []pvr.Option{
		pvr.WithOriginate(f.pfxs...), pvr.WithShards(8), pvr.WithWindow(0),
		// Windows seal on Flush only: the harness decides where a window ends.
		pvr.WithMaxBatch(1 << 30),
		pvr.WithListen(addrBGP), pvr.WithGossipListen(addrGossip), pvr.WithDiscloseListen(addrDisc),
		pvr.WithPromisees(asnB),
	}
	if spec.maxLen > 0 {
		aOpts = append(aOpts, pvr.WithMaxLen(spec.maxLen))
	}
	if spec.zk {
		aOpts = append(aOpts, pvr.WithZKDisclosure())
	}
	if spec.store {
		if f.storeDir, err = scratchDir(scratch, "store"); err != nil {
			return f, err
		}
		aOpts = append(aOpts, pvr.WithStore(f.storeDir))
	}
	if f.A, err = open(asnA, aOpts...); err != nil {
		return f, err
	}
	for i, s := range k.providers {
		opts := []pvr.Option{pvr.WithSigner(s)}
		if spec.zk {
			opts = append(opts, pvr.WithRingKey(k.ring[i]))
		}
		p, err := open(asnP+pvr.ASN(i), opts...)
		if err != nil {
			return f, err
		}
		f.P = append(f.P, p)
	}
	// At the seed commit a BGP neighbour cannot verify routes sealed with
	// WithZKDisclosure: the UPDATE's attachments leave out the leaf's ZK
	// digest, so every route is rejected as "not under shard root". Until
	// that is fixed in the program, B peers over BGP only with a prover
	// that seals without ZK; it is A's promisee either way.
	var bOpts []pvr.Option
	if !spec.zk {
		bOpts = append(bOpts, pvr.WithPeers(addrBGP))
	}
	if f.B, err = open(asnB, bOpts...); err != nil {
		return f, err
	}
	if f.C, err = open(asnC); err != nil {
		return f, err
	}
	if f.O, err = open(asnO); err != nil {
		return f, err
	}
	var uOpts []pvr.Option
	if spec.zk {
		uOpts = append(uOpts, pvr.WithRingKey(k.outsider))
	}
	if f.U, err = open(asnU, uOpts...); err != nil {
		return f, err
	}
	if !spec.zk {
		if err := f.waitVerified(ctx, uint64(spec.prefixes), uint64(spec.prefixes)); err != nil {
			return f, fmt.Errorf("B's table verification: %w", err)
		}
	}
	return f, nil
}

// waitVerified blocks until B has taken delivery of updates more UPDATEs
// from A and finished verifying them, then requires B's public counters to
// show exactly verified more verified routes and no rejected one: an honest
// A must never be refused. The totals are since the fleet was opened.
func (f *fleet) waitVerified(ctx context.Context, verified, updates uint64) error {
	f.verified += verified
	f.updates += updates
	// The session's first two frames are the handshake (OPEN, KEEPALIVE);
	// with hold time 0 every later one is an UPDATE.
	if err := f.tr.plane(addrBGP).waitConsumed(ctx, int64(f.updates)+2); err != nil {
		return err
	}
	m := f.B.Metrics()
	v, _ := m.Value("pvr_routes_verified_total")
	u, _ := m.Value("pvr_bgp_updates_in_total")
	r, _ := m.Value("pvr_routes_rejected_total")
	if uint64(v) != f.verified || uint64(u) != f.updates || r != 0 {
		return fmt.Errorf("B verified %v routes in %v updates and rejected %v; the inputs imply %d in %d and none",
			v, u, r, f.verified, f.updates)
	}
	return nil
}

// announce has provider i sign an input route of the given AS-path length
// for prefix index pi, addressed to A.
func (f *fleet) announce(i, pi, pathLen int) (pvr.Announcement, error) {
	return f.P[i].Announce(asnA, epoch, inputRoute(f.pfxs[pi], asnP+pvr.ASN(i), pathLen))
}

// convictions sums the convicted-AS sets of the whole fleet. Every
// participant here is honest, so anything but zero is a false conviction.
func (f *fleet) convictions() int {
	n := 0
	for _, p := range f.all() {
		n += p.Stats().Convictions
	}
	return n
}

// all lists the participants that are open, in the order they were opened.
func (f *fleet) all() []*pvr.Participant {
	var out []*pvr.Participant
	for _, p := range append(append([]*pvr.Participant{f.A}, f.P...), f.B, f.C, f.O, f.U) {
		if p != nil {
			out = append(out, p)
		}
	}
	return out
}

// Close shuts the fleet down in reverse order: neighbours before the prover
// they talk to.
func (f *fleet) Close() error {
	var errs []error
	ps := f.all()
	for i := len(ps) - 1; i >= 0; i-- {
		errs = append(errs, ps[i].Close())
	}
	if f.storeDir != "" {
		errs = append(errs, os.RemoveAll(f.storeDir))
	}
	return errors.Join(errs...)
}

// universe is the benchmark's prefix universe: n /24s carved from
// 10.0.0.0/8, a function of the index alone.
func universe(n int) []pvr.Prefix {
	out := make([]pvr.Prefix, n)
	for i := range out {
		out[i] = pvr.MustParsePrefix(fmt.Sprintf("10.%d.%d.0/24", i>>8, i&0xff))
	}
	return out
}

var nextHop = netip.MustParseAddr("192.0.2.1")

// inputRoute builds an input route for pfx whose AS path starts at first and is
// pathLen hops long.
func inputRoute(pfx pvr.Prefix, first pvr.ASN, pathLen int) pvr.Route {
	asns := make([]pvr.ASN, pathLen)
	asns[0] = first
	for i := 1; i < pathLen; i++ {
		asns[i] = pvr.ASN(65000 + i)
	}
	return pvr.Route{Prefix: pfx, Path: pvr.NewPath(asns...), NextHop: nextHop}
}
