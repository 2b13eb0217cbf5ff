package sigs

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"runtime"
	"sync"
	"testing"
)

// TestVerifyMemoFootprint fills a memo with MemoCap distinct verified
// triples, which leaves every stripe with a full previous generation and a
// partly filled current one, and bounds what the memo then keeps live.
func TestVerifyMemoFootprint(t *testing.T) {
	const limit = 1.2 * (1 << 20)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	m := NewVerifyMemo()
	var msg [8]byte
	for i := 0; i < MemoCap; i++ {
		binary.BigEndian.PutUint64(msg[:], uint64(i))
		if err := m.Do(sha256.Sum256(msg[:]), func() error { return nil }); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	held := float64(after.HeapAlloc) - float64(before.HeapAlloc)
	n := m.Len()
	runtime.KeepAlive(m)
	if n < MemoCap/2 {
		t.Fatalf("memo holds %d verdicts after %d distinct ones", n, MemoCap)
	}
	if held > limit {
		t.Fatalf("memo of %d verdicts holds %.0f B, limit %.0f B", n, held, limit)
	}
	t.Logf("%d verdicts in %.0f B (%.1f B each)", n, held, held/float64(n))
}

// TestVerifyMemoFailuresBesideSuccesses keeps a cached failure answering
// as a failure while its stripe's table of verified digests grows around
// it, and keeps the zero digest (the table's free-slot marker) a key like
// any other.
func TestVerifyMemoFailuresBesideSuccesses(t *testing.T) {
	m := NewVerifyMemo()
	bad := sha256.Sum256([]byte("forged"))
	if err := m.Do(bad, func() error { return ErrBadSignature }); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("first check: %v", err)
	}
	var msg [8]byte
	for i := 0; i < memoStripeGen; i++ {
		binary.BigEndian.PutUint64(msg[:], uint64(i))
		k := sha256.Sum256(msg[:])
		k[0] = bad[0] // same stripe as the failure
		if err := m.Do(k, func() error { return nil }); err != nil {
			t.Fatal(err)
		}
		if err := m.Do(bad, func() error { t.Fatal("failure re-checked"); return nil }); !errors.Is(err, ErrBadSignature) {
			t.Fatalf("after %d successes the failure reads %v", i+1, err)
		}
	}
	var zero [sha256.Size]byte
	calls := 0
	check := func() error { calls++; return nil }
	for i := 0; i < 3; i++ {
		if err := m.Do(zero, check); err != nil {
			t.Fatal(err)
		}
	}
	if calls != 1 {
		t.Fatalf("zero digest checked %d times, want 1", calls)
	}
}

// TestVerifyMemoUnknownKeyNotCached checks a triple from a signer the
// registry does not know yet again once the key is registered.
func TestVerifyMemoUnknownKeyNotCached(t *testing.T) {
	s, err := GenerateEd25519()
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	m := NewVerifyMemo()
	msg := []byte("announcement")
	sig, _ := s.Sign(msg)
	if err := m.Verify(reg, 7, msg, sig); !errors.Is(err, ErrUnknownKey) {
		t.Fatalf("before registration: %v", err)
	}
	reg.Register(7, s.Public())
	if err := m.Verify(reg, 7, msg, sig); err != nil {
		t.Fatalf("after registration: %v", err)
	}
}

// TestVerifyMemoConcurrent has goroutines check overlapping key sets, with
// enough distinct keys to grow and rotate every stripe's tables, and every
// answer must be the key's own verdict.
func TestVerifyMemoConcurrent(t *testing.T) {
	m := NewVerifyMemo()
	verdict := func(i int) error {
		if i%7 == 0 {
			return ErrBadSignature
		}
		return nil
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var msg [8]byte
			for n := 0; n < 2*MemoCap; n++ {
				i := (n*(g+1) + g) % (MemoCap / 2)
				binary.BigEndian.PutUint64(msg[:], uint64(i))
				if err := m.Do(sha256.Sum256(msg[:]), func() error { return verdict(i) }); !errors.Is(err, verdict(i)) {
					t.Errorf("key %d: verdict %v, want %v", i, err, verdict(i))
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if n := m.Len(); n > MemoCap {
		t.Fatalf("memo holds %d verdicts, cap %d", n, MemoCap)
	}
}
