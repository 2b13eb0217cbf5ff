package sigs

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"testing"

	"pvr/internal/aspath"
)

func testRegistry(t testing.TB, n int) (*Registry, []aspath.ASN, []Signer) {
	t.Helper()
	reg := NewRegistry()
	asns := make([]aspath.ASN, n)
	signers := make([]Signer, n)
	for i := 0; i < n; i++ {
		s, err := GenerateEd25519()
		if err != nil {
			t.Fatal(err)
		}
		asns[i] = aspath.ASN(100 + i)
		signers[i] = s
		reg.Register(asns[i], s.Public())
	}
	return reg, asns, signers
}

func TestBatchVerifierAllValid(t *testing.T) {
	reg, asns, signers := testRegistry(t, 3)
	b := NewBatchVerifier(reg)
	const n = 200
	for i := 0; i < n; i++ {
		k := i % 3
		msg := []byte(fmt.Sprintf("msg %d", i))
		sig, err := signers[k].Sign(msg)
		if err != nil {
			t.Fatal(err)
		}
		b.Add(asns[k], msg, sig)
	}
	errs := b.Flush(0)
	if len(errs) != n {
		t.Fatalf("got %d results, want %d", len(errs), n)
	}
	for i, e := range errs {
		if e != nil {
			t.Fatalf("item %d: unexpected error %v", i, e)
		}
	}
	if b.Len() != 0 {
		t.Fatal("batch not cleared after Flush")
	}
}

func TestBatchVerifierPinpointsBadSignatures(t *testing.T) {
	reg, asns, signers := testRegistry(t, 2)
	b := NewBatchVerifier(reg)
	const n = 100
	bad := map[int]bool{0: true, 17: true, 63: true, 99: true}
	for i := 0; i < n; i++ {
		k := i % 2
		msg := []byte(fmt.Sprintf("msg %d", i))
		sig, err := signers[k].Sign(msg)
		if err != nil {
			t.Fatal(err)
		}
		if bad[i] {
			sig[5] ^= 0xff
		}
		b.Add(asns[k], msg, sig)
	}
	errs := b.Flush(0)
	for i, e := range errs {
		if bad[i] && !errors.Is(e, ErrBadSignature) {
			t.Fatalf("item %d: want ErrBadSignature, got %v", i, e)
		}
		if !bad[i] && e != nil {
			t.Fatalf("item %d: healthy signature failed: %v", i, e)
		}
	}
}

func TestBatchVerifierUnknownSignerAndShortSig(t *testing.T) {
	reg, asns, signers := testRegistry(t, 1)
	b := NewBatchVerifier(reg)
	msg := []byte("hello")
	sig, _ := signers[0].Sign(msg)
	b.Add(asns[0], msg, sig)
	b.Add(aspath.ASN(9999), msg, sig) // unregistered
	b.Add(asns[0], msg, sig[:20])     // truncated
	errs := b.Flush(0)
	if errs[0] != nil {
		t.Fatalf("valid item failed: %v", errs[0])
	}
	if !errors.Is(errs[1], ErrUnknownKey) {
		t.Fatalf("want ErrUnknownKey, got %v", errs[1])
	}
	if !errors.Is(errs[2], ErrBadSignature) {
		t.Fatalf("want ErrBadSignature for short sig, got %v", errs[2])
	}
}

func TestBatchVerifierRSAFallback(t *testing.T) {
	reg := NewRegistry()
	rs, err := GenerateRSA(1024)
	if err != nil {
		t.Fatal(err)
	}
	es, err := GenerateEd25519()
	if err != nil {
		t.Fatal(err)
	}
	reg.Register(1, rs.Public())
	reg.Register(2, es.Public())
	b := NewBatchVerifier(reg)
	m1 := []byte("rsa message")
	m2 := []byte("ed message")
	s1, _ := rs.Sign(m1)
	s2, _ := es.Sign(m2)
	b.Add(1, m1, s1)
	b.Add(2, m2, s2)
	b.Add(1, m2, s1) // rsa sig over wrong msg
	errs := b.Flush(0)
	if errs[0] != nil || errs[1] != nil {
		t.Fatalf("valid mixed batch failed: %v %v", errs[0], errs[1])
	}
	if !errors.Is(errs[2], ErrBadSignature) {
		t.Fatalf("bad rsa item: got %v", errs[2])
	}
}

func TestBatchVerifierParallelFlush(t *testing.T) {
	reg, asns, signers := testRegistry(t, 2)
	b := NewBatchVerifier(reg)
	const n = 300
	for i := 0; i < n; i++ {
		k := i % 2
		msg := []byte(fmt.Sprintf("p %d", i))
		sig, _ := signers[k].Sign(msg)
		b.Add(asns[k], msg, sig)
	}
	for i, e := range b.Flush(4) {
		if e != nil {
			t.Fatalf("item %d failed under parallel flush: %v", i, e)
		}
	}
}

func TestCollectorTracksItsOwnChecks(t *testing.T) {
	reg, asns, signers := testRegistry(t, 1)
	b := NewBatchVerifier(reg)

	good := b.Collector()
	bad := b.Collector()
	for i := 0; i < 20; i++ {
		msg := []byte(fmt.Sprintf("c %d", i))
		sig, _ := signers[0].Sign(msg)
		if err := good.Check(asns[0], msg, sig); err != nil {
			t.Fatal(err)
		}
		if i == 7 {
			sig = append([]byte{}, sig...)
			sig[0] ^= 1
		}
		if err := bad.Check(asns[0], msg, sig); err != nil {
			t.Fatal(err)
		}
	}
	flushed := b.Flush(0)
	good.Resolve(flushed)
	bad.Resolve(flushed)
	if err := good.Err(); err != nil {
		t.Fatalf("clean collector reported %v", err)
	}
	if !errors.Is(bad.Err(), ErrBadSignature) {
		t.Fatalf("tainted collector reported %v", bad.Err())
	}
}

func TestVerifyMemoCachesVerdicts(t *testing.T) {
	reg, asns, signers := testRegistry(t, 1)
	m := NewVerifyMemo()
	msg := []byte("sealed statement")
	sig, _ := signers[0].Sign(msg)

	if m.Seen(asns[0], msg, sig) {
		t.Fatal("unseen triple reported as seen")
	}
	for i := 0; i < 5; i++ {
		if err := m.Verify(reg, asns[0], msg, sig); err != nil {
			t.Fatal(err)
		}
	}
	if m.Misses() != 1 || m.Hits() != 4 {
		t.Fatalf("hits/misses = %d/%d, want 4/1", m.Hits(), m.Misses())
	}
	if !m.Seen(asns[0], msg, sig) {
		t.Fatal("cached triple not seen")
	}

	// Failures are cached too.
	forged := append([]byte{}, sig...)
	forged[3] ^= 0x10
	for i := 0; i < 3; i++ {
		if err := m.Verify(reg, asns[0], msg, forged); !errors.Is(err, ErrBadSignature) {
			t.Fatalf("forged verify: %v", err)
		}
	}
	if m.Misses() != 2 {
		t.Fatalf("forged triple verified more than once: misses=%d", m.Misses())
	}
	if m.Len() != 2 {
		t.Fatalf("memo len = %d, want 2", m.Len())
	}
}

// TestCachedVerifierConcurrentStress exercises concurrent
// Register/Verify/Invalidate under the race detector: the striped cache
// must never return stale errors for keys that exist, nor crash.
func TestCachedVerifierConcurrentStress(t *testing.T) {
	reg, asns, signers := testRegistry(t, 8)
	cv := NewCachedVerifier(reg)
	msg := []byte("stress")
	sigs := make([][]byte, len(signers))
	for i, s := range signers {
		sigs[i], _ = s.Sign(msg)
	}

	stop := make(chan struct{})
	churnDone := make(chan struct{})
	// Churn: re-register the same keys and periodically invalidate.
	go func() {
		defer close(churnDone)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			reg.Register(asns[i%len(asns)], signers[i%len(signers)].Public())
			if i%16 == 0 {
				cv.Invalidate()
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				k := (w + i) % len(asns)
				if err := cv.Verify(asns[k], msg, sigs[k]); err != nil {
					t.Errorf("worker %d: verify %s: %v", w, asns[k], err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	<-churnDone
}

func BenchmarkCachedVerifierLookupParallel(b *testing.B) {
	reg, asns, _ := testRegistry(b, 8)
	cv := NewCachedVerifier(reg)
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if _, err := cv.Lookup(asns[i%len(asns)]); err != nil {
				b.Fatal(err)
			}
			i++
		}
	})
}

func BenchmarkRegistryLookupParallel(b *testing.B) {
	reg, asns, _ := testRegistry(b, 8)
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if _, err := reg.Lookup(asns[i%len(asns)]); err != nil {
				b.Fatal(err)
			}
			i++
		}
	})
}

func BenchmarkBatchVerifierFlush(b *testing.B) {
	reg, asns, signers := testRegistry(b, 3)
	const n = 512
	msgs := make([][]byte, n)
	sgs := make([][]byte, n)
	for i := 0; i < n; i++ {
		msgs[i] = []byte(fmt.Sprintf("bench %d", i))
		sgs[i], _ = signers[i%3].Sign(msgs[i])
	}
	b.ResetTimer()
	for it := 0; it < b.N; it++ {
		bv := NewBatchVerifier(reg)
		for i := 0; i < n; i++ {
			bv.Add(asns[i%3], msgs[i], sgs[i])
		}
		for _, e := range bv.Flush(0) {
			if e != nil {
				b.Fatal(e)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/sig")
}

// countingVerifier accepts everything and counts how often it was asked.
type countingVerifier struct{ calls int }

func (v *countingVerifier) Lookup(aspath.ASN) (PublicKey, error) { return nil, ErrUnknownKey }
func (v *countingVerifier) Verify(aspath.ASN, []byte, []byte) error {
	v.calls++
	return nil
}

func TestVerifyMemoIsBounded(t *testing.T) {
	m := NewVerifyMemo()
	ver := &countingVerifier{}
	hot := []byte("a seal every window re-checks")
	if err := m.Verify(ver, 1, hot, nil); err != nil {
		t.Fatal(err)
	}
	// Ten times the capacity in distinct triples. A generation of a stripe
	// is memoStripeGen entries, so checking the hot triple again every
	// quarter of a whole generation keeps it at most one rotation old.
	var msg [8]byte
	for i := 0; i < 10*MemoCap; i++ {
		binary.BigEndian.PutUint64(msg[:], uint64(i))
		if err := m.Verify(ver, 2, msg[:], nil); err != nil {
			t.Fatal(err)
		}
		if i%(MemoCap/8) == 0 {
			before := ver.calls
			if err := m.Verify(ver, 1, hot, nil); err != nil {
				t.Fatal(err)
			}
			if ver.calls != before {
				t.Fatalf("hot triple verified again after %d distinct triples", i)
			}
		}
		if n := m.Len(); n > MemoCap {
			t.Fatalf("memo holds %d verdicts after %d distinct triples, cap %d", n, i+1, MemoCap)
		}
	}
	if m.Len() < MemoCap/4 {
		t.Fatalf("memo holds only %d verdicts after 10x its capacity", m.Len())
	}
	// What was not asked about again has aged out and is verified afresh.
	binary.BigEndian.PutUint64(msg[:], 0)
	if m.Seen(2, msg[:], nil) {
		t.Fatal("the first of 10x capacity distinct triples is still memoized")
	}
}
