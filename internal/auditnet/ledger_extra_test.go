package auditnet

import (
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"pvr/internal/gossip"
	"pvr/internal/obs"
)

// makeConflict builds judge-ready equivocation evidence: the accused
// signs two different payloads for the same topic.
func makeConflict(t testing.TB, p *testPKI, topic string) *gossip.Conflict {
	t.Helper()
	const accused = 2
	sign := func(payload string) gossip.Statement {
		sig, err := p.signers[accused].Sign([]byte(payload))
		if err != nil {
			t.Fatal(err)
		}
		return gossip.Statement{Origin: accused, Topic: topic, Payload: []byte(payload), Sig: sig}
	}
	return &gossip.Conflict{
		Origin: accused, Topic: topic,
		A: sign("version-A/" + topic), B: sign("version-B/" + topic),
	}
}

// newestSegment returns the path of the newest WAL segment in a ledger
// directory — where a crash-torn or tampered tail would live.
func newestSegment(t testing.TB, dir string) string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var segs []string
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "wal-") && strings.HasSuffix(e.Name(), ".log") {
			segs = append(segs, e.Name())
		}
	}
	if len(segs) == 0 {
		t.Fatalf("no WAL segment in %s", dir)
	}
	sort.Strings(segs) // fixed-width hex names: lexicographic = numeric
	return filepath.Join(dir, segs[len(segs)-1])
}

// lastWALFrame returns the byte range of the final record frame in a WAL
// segment image (16-byte header, then u32 len | type‖data | u32 CRC).
func lastWALFrame(t testing.TB, b []byte) []byte {
	t.Helper()
	const hdr = 16
	off := hdr
	last := -1
	for off < len(b) {
		if len(b)-off < 4 {
			t.Fatalf("torn frame at offset %d", off)
		}
		n := int(uint32(b[off])<<24 | uint32(b[off+1])<<16 | uint32(b[off+2])<<8 | uint32(b[off+3]))
		if off+4+n+4 > len(b) {
			t.Fatalf("torn frame at offset %d", off)
		}
		last = off
		off += 4 + n + 4
	}
	if last < 0 {
		t.Fatal("no complete frame in segment")
	}
	return b[last:off]
}

// TestLedgerReplayToleratesDuplicatedTrailingRecord: a crash between the
// write and the application-level ack can leave the final record appended
// twice on recovery-by-retry. Replay must absorb the duplicate the same
// way it absorbs a torn tail — open cleanly, dedupe, and convict exactly
// once.
func TestLedgerReplayToleratesDuplicatedTrailingRecord(t *testing.T) {
	p := newTestPKI(t, 3)
	path := filepath.Join(t.TempDir(), "dup.ledger")

	led, recs, err := OpenLedger(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("fresh ledger replayed %d records", len(recs))
	}
	a, err := New(Config{ASN: 1, Registry: p.reg, Ledger: led})
	if err != nil {
		t.Fatal(err)
	}
	c := makeConflict(t, p, "seal/2/9.1/0")
	if added, err := a.HandleConflict(c, obs.TraceContext{}); err != nil || !added {
		t.Fatalf("HandleConflict = (%v, %v)", added, err)
	}
	if err := led.Close(); err != nil {
		t.Fatal(err)
	}

	// Duplicate the trailing record, byte for byte: a valid CRC-framed
	// copy appended to the newest segment.
	seg := newestSegment(t, path)
	raw, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	dup := append(raw, lastWALFrame(t, raw)...)
	if err := os.WriteFile(seg, dup, 0o644); err != nil {
		t.Fatal(err)
	}

	led2, recs2, err := OpenLedger(path)
	if err != nil {
		t.Fatalf("reopen with duplicated trailing record: %v", err)
	}
	defer led2.Close()
	if len(recs2) != 2 {
		t.Fatalf("replayed %d records, want the duplicate pair", len(recs2))
	}
	a2, err := New(Config{ASN: 1, Registry: p.reg, Ledger: led2, Replay: recs2})
	if err != nil {
		t.Fatalf("auditor replay over duplicated record: %v", err)
	}
	if got := len(a2.Convictions()); got != 1 {
		t.Fatalf("duplicate record minted %d convictions, want 1", got)
	}
	if got := a2.Store().ConflictCount(); got != 1 {
		t.Fatalf("duplicate record stored %d conflicts, want 1", got)
	}
	// And the recovered ledger still appends cleanly.
	if added, err := a2.HandleConflict(makeConflict(t, p, "seal/2/9.2/0"), obs.TraceContext{}); err != nil || !added {
		t.Fatalf("append after recovery = (%v, %v)", added, err)
	}
}

// TestLedgerReplayToleratesTornAndDuplicatedTail: duplicate the trailing
// record AND tear the copy mid-frame — the recovery path sees a valid
// prefix, a complete duplicate, and a torn tail, and must keep exactly
// the valid records.
func TestLedgerReplayToleratesTornAndDuplicatedTail(t *testing.T) {
	p := newTestPKI(t, 3)
	path := filepath.Join(t.TempDir(), "duptorn.ledger")
	led, _, err := OpenLedger(path)
	if err != nil {
		t.Fatal(err)
	}
	a, err := New(Config{ASN: 1, Registry: p.reg, Ledger: led})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.HandleConflict(makeConflict(t, p, "seal/2/1.1/0"), obs.TraceContext{}); err != nil {
		t.Fatal(err)
	}
	led.Close()

	seg := newestSegment(t, path)
	raw, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	frame := lastWALFrame(t, raw)
	mangled := append(append(append([]byte(nil), raw...), frame...), frame[:len(frame)/2]...)
	if err := os.WriteFile(seg, mangled, 0o644); err != nil {
		t.Fatal(err)
	}
	led2, recs, err := OpenLedger(path)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer led2.Close()
	if len(recs) != 2 {
		t.Fatalf("replayed %d records, want 2 (dup kept, torn tail dropped)", len(recs))
	}
	if _, err := New(Config{ASN: 1, Registry: p.reg, Ledger: led2, Replay: recs}); err != nil {
		t.Fatal(err)
	}
}

// TestLedgerTamperWithFixedCRCFailsAuditorReplay: framing CRCs catch
// accidental corruption, but an adversary who can rewrite the file can
// recompute them. The ledger must still not be trusted on read — the
// auditor's signature verification is what refuses the forged evidence.
func TestLedgerTamperWithFixedCRCFailsAuditorReplay(t *testing.T) {
	p := newTestPKI(t, 3)
	path := filepath.Join(t.TempDir(), "tamper.ledger")
	led, _, err := OpenLedger(path)
	if err != nil {
		t.Fatal(err)
	}
	a, err := New(Config{ASN: 1, Registry: p.reg, Ledger: led})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.HandleConflict(makeConflict(t, p, "seal/2/3.1/0"), obs.TraceContext{}); err != nil {
		t.Fatal(err)
	}
	led.Close()

	seg := newestSegment(t, path)
	raw, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	frame := lastWALFrame(t, raw) // aliases raw
	body := frame[4 : len(frame)-4]
	idx := -1
	for i, b := range body {
		if b == 'A' { // "version-A" payload byte
			idx = i
			break
		}
	}
	if idx < 0 {
		t.Fatal("could not locate payload byte to tamper")
	}
	body[idx] = 'X'
	crc := crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli))
	end := frame[len(frame)-4:]
	end[0], end[1], end[2], end[3] = byte(crc>>24), byte(crc>>16), byte(crc>>8), byte(crc)
	if err := os.WriteFile(seg, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	led2, recs2, err := OpenLedger(path)
	if err != nil {
		t.Fatal(err) // framing is intact; content verification is New's job
	}
	defer led2.Close()
	if len(recs2) != 1 {
		t.Fatalf("replayed %d records", len(recs2))
	}
	if _, err := New(Config{ASN: 1, Registry: p.reg, Ledger: led2, Replay: recs2}); err == nil {
		t.Fatal("tampered ledger replayed without error")
	}
}

// BenchmarkLedgerAppendReplay measures the write path — one appender
// (every append pays a full commit) against concurrent appenders
// sharing group commits — and the recovery path (replay of the whole
// log).
func BenchmarkLedgerAppendReplay(b *testing.B) {
	p := newTestPKI(b, 3)
	// A fixed pool of pre-signed conflicts: the ledger does not dedupe,
	// so cycling them measures pure append cost, not signing.
	pool := make([]*gossip.Conflict, 64)
	for i := range pool {
		pool[i] = makeConflict(b, p, fmt.Sprintf("seal/2/%d/0", i))
	}

	b.Run("append", func(b *testing.B) {
		led, _, err := OpenLedger(filepath.Join(b.TempDir(), "append.ledger"))
		if err != nil {
			b.Fatal(err)
		}
		defer led.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := led.AppendConflict(1, pool[i%len(pool)]); err != nil {
				b.Fatal(err)
			}
		}
	})

	for _, par := range []int{8, 32} {
		b.Run(fmt.Sprintf("append-group-%d", par), func(b *testing.B) {
			led, _, err := OpenLedger(filepath.Join(b.TempDir(), "group.ledger"))
			if err != nil {
				b.Fatal(err)
			}
			defer led.Close()
			var next atomic.Uint64
			b.SetParallelism(par)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					i := next.Add(1)
					if err := led.AppendConflict(1, pool[int(i)%len(pool)]); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}

	b.Run("replay", func(b *testing.B) {
		path := filepath.Join(b.TempDir(), "replay.ledger")
		led, _, err := OpenLedger(path)
		if err != nil {
			b.Fatal(err)
		}
		const records = 256
		for i := 0; i < records; i++ {
			if err := led.AppendConflict(1, pool[i%len(pool)]); err != nil {
				b.Fatal(err)
			}
		}
		led.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			led, recs, err := OpenLedger(path)
			if err != nil {
				b.Fatal(err)
			}
			if len(recs) != records {
				b.Fatalf("replayed %d, want %d", len(recs), records)
			}
			led.Close()
		}
	})
}
