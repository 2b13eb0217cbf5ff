package store

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

func mustAppend(t *testing.T, l *Log, typ uint8, data []byte) {
	t.Helper()
	if err := l.Append(typ, data); err != nil {
		t.Fatalf("append: %v", err)
	}
}

func TestLogAppendReplayRoundTrip(t *testing.T) {
	m := NewMem()
	l, rec, err := OpenLog(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Records) != 0 {
		t.Fatalf("fresh log replayed %d records", len(rec.Records))
	}
	var want []Record
	for i := 0; i < 100; i++ {
		r := Record{Type: uint8(i%3 + 1), Data: []byte(fmt.Sprintf("record-%03d", i))}
		mustAppend(t, l, r.Type, r.Data)
		want = append(want, r)
	}
	if got := l.NextSeq(); got != 101 {
		t.Fatalf("NextSeq = %d, want 101", got)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	_, rec, err = OpenLog(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Records) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(rec.Records), len(want))
	}
	for i, r := range rec.Records {
		if r.Type != want[i].Type || !bytes.Equal(r.Data, want[i].Data) {
			t.Fatalf("record %d: got %v, want %v", i, r, want[i])
		}
	}
}

func TestLogSegmentsRollAndStaySequential(t *testing.T) {
	m := NewMem()
	l, _, err := OpenLog(m, Options{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		mustAppend(t, l, 1, bytes.Repeat([]byte{byte(i)}, 32))
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	names, _ := m.List()
	if len(names) < 3 {
		t.Fatalf("want >= 3 segments at SegmentBytes=256, got %v", names)
	}
	l2, rec, err := OpenLog(m, Options{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Records) != 50 {
		t.Fatalf("replayed %d, want 50", len(rec.Records))
	}
	// A reopened log never appends to a recovered segment: the next
	// record starts a fresh one named by its sequence.
	mustAppend(t, l2, 1, []byte("after reopen"))
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := m.ReadFile(segName(51)); err != nil {
		t.Fatalf("expected fresh segment %s after reopen: %v", segName(51), err)
	}
	_, rec, err = OpenLog(m, Options{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Records) != 51 {
		t.Fatalf("replayed %d after reopen-append, want 51", len(rec.Records))
	}
}

func TestLogTornTailTruncated(t *testing.T) {
	m := NewMem()
	l, _, err := OpenLog(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		mustAppend(t, l, 1, []byte(fmt.Sprintf("rec-%d", i)))
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Tear the tail: append half a frame to the (only) segment.
	f, err := m.Append(segName(1))
	if err != nil {
		t.Fatal(err)
	}
	torn := appendFrame(nil, 1, []byte("never committed"))
	if _, err := f.Write(torn[:len(torn)/2]); err != nil {
		t.Fatal(err)
	}
	f.Close()
	_, rec, err := OpenLog(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Records) != 10 {
		t.Fatalf("replayed %d, want the 10 committed", len(rec.Records))
	}
	if rec.TornBytes == 0 {
		t.Fatal("torn tail not reported")
	}
}

func TestLogCorruptMiddleSegmentFailsLoudly(t *testing.T) {
	m := NewMem()
	l, _, err := OpenLog(m, Options{SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		mustAppend(t, l, 1, bytes.Repeat([]byte{byte(i)}, 24))
	}
	l.Close()
	names, _ := m.List()
	if len(names) < 2 {
		t.Fatalf("need >= 2 segments, got %v", names)
	}
	// Flip a byte in the FIRST segment: that is corruption, not a torn
	// tail (only the newest segment can be torn), and must refuse to open.
	data, _ := m.ReadFile(names[0])
	data[len(data)-3] ^= 0xff
	f, _ := m.Create(names[0])
	f.Write(data)
	f.Close()
	if _, _, err := OpenLog(m, Options{}); err == nil {
		t.Fatal("corrupt non-final segment opened silently")
	}
}

func TestLogGroupCommitBatchesConcurrentAppends(t *testing.T) {
	m := NewMem()
	met := NewMetrics(nil)
	l, _, err := OpenLog(m, Options{FlushEvery: 2 * time.Millisecond, Metrics: met})
	if err != nil {
		t.Fatal(err)
	}
	const appenders, per = 8, 25
	var wg sync.WaitGroup
	for a := 0; a < appenders; a++ {
		wg.Add(1)
		go func(a int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := l.Append(1, []byte(fmt.Sprintf("a%d-%d", a, i))); err != nil {
					t.Errorf("append: %v", err)
					return
				}
			}
		}(a)
	}
	wg.Wait()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	apps, commits := met.appends.Value(), met.commits.Value()
	if apps != appenders*per {
		t.Fatalf("appends = %d, want %d", apps, appenders*per)
	}
	// The whole point of group commit: far fewer fsyncs than appends.
	if commits >= apps {
		t.Fatalf("commits %d not batched below appends %d", commits, apps)
	}
	_, rec, err := OpenLog(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Records) != appenders*per {
		t.Fatalf("replayed %d, want %d", len(rec.Records), appenders*per)
	}
}

// TestLogMaxBatchKicksEarly sends appends in waves of exactly MaxBatch:
// each wave's last append fills the batch and must flush it at once,
// well inside the hour-long window. (A remainder below MaxBatch would
// rightly wait the window out, so waves keep the outcome independent of
// how the appenders are scheduled.)
func TestLogMaxBatchKicksEarly(t *testing.T) {
	const maxBatch, waves = 4, 2
	m := NewMem()
	l, _, err := OpenLog(m, Options{FlushEvery: time.Hour, MaxBatch: maxBatch})
	if err != nil {
		t.Fatal(err)
	}
	for w := 0; w < waves; w++ {
		done := make(chan error, maxBatch)
		for i := 0; i < maxBatch; i++ {
			go func() { done <- l.Append(1, []byte("x")) }()
		}
		for i := 0; i < maxBatch; i++ {
			select {
			case err := <-done:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("wave %d: append never flushed despite MaxBatch overflow", w)
			}
		}
	}
	l.Close()
}

func TestLogAppendAsyncDurableAfterSync(t *testing.T) {
	m := NewMem()
	l, _, err := OpenLog(m, Options{FlushEvery: time.Hour, MaxBatch: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		l.AppendAsync(2, []byte{byte(i)})
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	m.Crash() // power loss: only synced bytes survive
	_, rec, err := OpenLog(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Records) != 5 {
		t.Fatalf("replayed %d async records after sync+powerloss, want 5", len(rec.Records))
	}
}

func TestLogClosedAndOversizeErrors(t *testing.T) {
	m := NewMem()
	l, _, err := OpenLog(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(1, make([]byte, MaxRecord+1)); err == nil {
		t.Fatal("oversize record accepted")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal("second close not idempotent:", err)
	}
	if err := l.Append(1, []byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("append after close: %v, want ErrClosed", err)
	}
}
