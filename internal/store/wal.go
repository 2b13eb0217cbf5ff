package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sync"
	"sync/atomic"
	"time"
)

// WAL framing. Each segment starts with a 16-byte header (magic + the
// sequence number of its first record); each record is
//
//	u32 length | u8 type | data | u32 CRC-32C(type ‖ data)
//
// with length = 1 + len(data). Records are identified by a global
// sequence number implicit in their position: segment files are named
// wal-%016x.log by the sequence of their first record, and recovery
// counts forward from there. A record whose frame is incomplete or whose
// CRC fails is a torn tail: recovery keeps everything before it and
// ignores the rest. Segments are never appended to after a reopen — the
// log rolls a fresh one — so a torn tail can only ever sit at the very
// end of the newest segment.
const (
	walMagic  = "pvrwal1\n"
	snapMagic = "pvrsnap1"
	hdrSize   = 16
	// MaxRecord bounds one record's data bytes.
	MaxRecord = 4 << 20
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Record is one WAL entry: an application-defined type byte and opaque
// data.
type Record struct {
	Type uint8
	Data []byte
}

// Options parameterizes a Log or Store.
type Options struct {
	// FlushEvery is the group-commit window: an Append becomes durable
	// at most this long after it is enqueued, and every record that
	// arrives while the flush leader is waiting rides the same fsync.
	// Zero flushes immediately — concurrent appenders still batch behind
	// the in-flight fsync, which is the classic group-commit shape.
	FlushEvery time.Duration
	// MaxBatch flushes early once this many records are pending
	// (default 64).
	MaxBatch int
	// SegmentBytes rolls the active segment once it grows past this
	// (default 4 MiB).
	SegmentBytes int64
	// SnapshotEvery (Store only) is how many appended records arm
	// SnapshotDue (default 256; the Store never snapshots on its own —
	// the owner serializes state and calls Snapshot).
	SnapshotEvery int
	// Metrics receives the pvr_store_* accounting; nil means detached
	// (counted but unexported) handles.
	Metrics *Metrics
}

func (o Options) withDefaults() Options {
	if o.MaxBatch <= 0 {
		o.MaxBatch = 64
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 4 << 20
	}
	if o.SnapshotEvery <= 0 {
		o.SnapshotEvery = 256
	}
	if o.Metrics == nil {
		o.Metrics = NewMetrics(nil)
	}
	return o
}

// Recovery reports what opening a Log or Store found.
type Recovery struct {
	// Snapshot is the latest durable snapshot payload (Store only; nil
	// when none or when opening a bare Log).
	Snapshot []byte
	// SnapshotSeq is the sequence the snapshot covers up to, exclusive.
	SnapshotSeq uint64
	// Records are the committed WAL records after the snapshot, oldest
	// first.
	Records []Record
	// TornBytes counts trailing bytes dropped as a torn tail.
	TornBytes int
	// Segments is how many live segment files were scanned.
	Segments int
	// Elapsed is the recovery wall time.
	Elapsed time.Duration
}

// Log is a segmented write-ahead log with group commit. Append blocks
// until its record is durable (one fsync covers every record that
// queued behind the same flush); AppendAsync enqueues without waiting.
// Safe for concurrent use.
type Log struct {
	b   Backend
	opt Options
	met *Metrics

	// seq is the sequence number the next record will get (1-based).
	seq atomic.Uint64

	// mu guards the pending queue and leader election.
	mu     sync.Mutex
	pend   []pendingRec
	leader bool
	failed error
	closed bool
	kick   chan struct{}

	// wmu serializes batch writes (and freezes them during snapshots);
	// the active segment handle is guarded by it.
	wmu      sync.Mutex
	f        File
	size     int64
	segCount int
}

type pendingRec struct {
	frame []byte // nil for a Sync marker
	done  chan error
}

func appendFrame(b []byte, t uint8, data []byte) []byte {
	b = binary.BigEndian.AppendUint32(b, uint32(1+len(data)))
	crc := crc32.Update(0, crcTable, []byte{t})
	crc = crc32.Update(crc, crcTable, data)
	b = append(b, t)
	b = append(b, data...)
	return binary.BigEndian.AppendUint32(b, crc)
}

func segName(seq uint64) string  { return fmt.Sprintf("wal-%016x.log", seq) }
func snapName(seq uint64) string { return fmt.Sprintf("snap-%016x.snap", seq) }

// OpenLog opens (creating if needed) a bare log on b and replays every
// committed record. Bare logs never compact — the evidence ledger's
// append-only contract — so Records is the full history.
func OpenLog(b Backend, opt Options) (*Log, *Recovery, error) {
	t0 := time.Now()
	l, rec, err := openLog(b, opt, 0)
	if err != nil {
		return nil, nil, err
	}
	rec.Elapsed = time.Since(t0)
	l.met.recSec.Observe(rec.Elapsed.Seconds())
	return l, rec, nil
}

// openLog scans the segments and builds the Log; records with sequence
// < skipBefore (a snapshot boundary) are dropped from the replay.
func openLog(b Backend, opt Options, skipBefore uint64) (*Log, *Recovery, error) {
	opt = opt.withDefaults()
	l := &Log{b: b, opt: opt, met: opt.Metrics, kick: make(chan struct{}, 1)}
	names, err := b.List()
	if err != nil {
		return nil, nil, fmt.Errorf("store: list: %w", err)
	}
	type seg struct {
		name string
		seq  uint64
	}
	var segs []seg
	for _, name := range names {
		var s uint64
		if n, err := fmt.Sscanf(name, "wal-%016x.log", &s); err == nil && n == 1 && name == segName(s) {
			segs = append(segs, seg{name, s})
		}
	}
	// List is sorted and the names are fixed-width hex, so segs ascend.
	rec := &Recovery{Segments: len(segs), SnapshotSeq: skipBefore}
	next := uint64(1)
	if len(segs) > 0 {
		next = segs[0].seq
	}
	for i, s := range segs {
		last := i == len(segs)-1
		if s.seq != next {
			return nil, nil, fmt.Errorf("store: segment %s breaks the sequence (want %d)", s.name, next)
		}
		data, err := b.ReadFile(s.name)
		if err != nil {
			return nil, nil, fmt.Errorf("store: read %s: %w", s.name, err)
		}
		recs, torn, err := parseSegment(data, s.seq, last)
		if err != nil {
			return nil, nil, fmt.Errorf("store: %s: %w", s.name, err)
		}
		for _, r := range recs {
			if next >= skipBefore {
				rec.Records = append(rec.Records, r)
			}
			next++
		}
		if torn > 0 {
			rec.TornBytes += torn
			l.met.tornTails.Inc()
		}
	}
	if skipBefore > next {
		next = skipBefore
	}
	l.seq.Store(next)
	l.segCount = len(segs)
	l.met.segments.Set(int64(l.segCount))
	l.met.recRecs.Add(uint64(len(rec.Records)))
	return l, rec, nil
}

// parseSegment decodes one segment's records. A malformed header or
// record is tolerated as a torn tail only on the newest segment (last);
// anywhere else it is corruption, because older segments were sealed by
// a successful flush before the next one was created.
func parseSegment(data []byte, firstSeq uint64, last bool) ([]Record, int, error) {
	bad := func(off int, format string, args ...any) ([]Record, int, error) {
		if last {
			return nil, len(data) - off, nil
		}
		return nil, 0, fmt.Errorf(format, args...)
	}
	if len(data) < hdrSize {
		r, t, err := bad(0, "truncated header (%d bytes)", len(data))
		return r, t, err
	}
	if string(data[:len(walMagic)]) != walMagic {
		return nil, 0, fmt.Errorf("bad segment magic")
	}
	if got := binary.BigEndian.Uint64(data[len(walMagic):hdrSize]); got != firstSeq {
		return nil, 0, fmt.Errorf("header sequence %d does not match name (%d)", got, firstSeq)
	}
	var recs []Record
	off := hdrSize
	for off < len(data) {
		if len(data)-off < 4 {
			_, t, err := bad(off, "trailing %d bytes", len(data)-off)
			return recs, t, err
		}
		n := int(binary.BigEndian.Uint32(data[off:]))
		if n < 1 || n > MaxRecord+1 {
			_, t, err := bad(off, "record length %d out of range", n)
			return recs, t, err
		}
		if len(data)-off < 4+n+4 {
			_, t, err := bad(off, "record torn at %d bytes", len(data)-off)
			return recs, t, err
		}
		body := data[off+4 : off+4+n]
		want := binary.BigEndian.Uint32(data[off+4+n:])
		if crc32.Checksum(body, crcTable) != want {
			_, t, err := bad(off, "record CRC mismatch at offset %d", off)
			return recs, t, err
		}
		recs = append(recs, Record{Type: body[0], Data: append([]byte(nil), body[1:]...)})
		off += 4 + n + 4
	}
	return recs, 0, nil
}

// NextSeq returns the sequence number the next appended record will
// get. Only stable while appends are quiesced (e.g. under Snapshot).
func (l *Log) NextSeq() uint64 { return l.seq.Load() }

// Append durably appends one record: it returns once the record (and
// everything queued with it) has been fsynced.
func (l *Log) Append(t uint8, data []byte) error {
	return l.append(t, data, true)
}

// AppendAsync enqueues a record without waiting for durability; it rides
// the next group commit. A flush failure surfaces on the next
// synchronous Append or Sync (the log wedges with the error).
func (l *Log) AppendAsync(t uint8, data []byte) {
	_ = l.append(t, data, false)
}

func (l *Log) append(t uint8, data []byte, wait bool) error {
	if len(data) > MaxRecord {
		return fmt.Errorf("store: record of %d bytes exceeds MaxRecord", len(data))
	}
	var done chan error
	if wait {
		done = make(chan error, 1)
	}
	frame := appendFrame(nil, t, data)
	l.mu.Lock()
	if err := l.gateLocked(); err != nil {
		l.mu.Unlock()
		return err
	}
	l.pend = append(l.pend, pendingRec{frame: frame, done: done})
	n := len(l.pend)
	lead := !l.leader
	if lead {
		l.leader = true
	} else if n >= l.opt.MaxBatch {
		l.kickLeader()
	}
	l.mu.Unlock()
	l.met.appends.Inc()
	if lead {
		// The elected leader waits out the group-commit window and then
		// flushes for everyone. An async append must not block its caller
		// on that, so it leads from a goroutine.
		if wait {
			l.lead(n)
		} else {
			go l.lead(n)
		}
	}
	if done != nil {
		return <-done
	}
	return nil
}

// lead runs the flush leader's duty: wait out the group-commit window
// (cut short by a kick) and flush the batch. n is the pending count at
// election time.
func (l *Log) lead(n int) {
	if l.opt.FlushEvery > 0 && n < l.opt.MaxBatch {
		timer := time.NewTimer(l.opt.FlushEvery)
		select {
		case <-timer.C:
		case <-l.kick:
			timer.Stop()
		}
	}
	l.flush()
}

// Sync flushes everything pending and returns once it is durable.
func (l *Log) Sync() error {
	l.mu.Lock()
	if err := l.gateLocked(); err != nil {
		l.mu.Unlock()
		return err
	}
	if len(l.pend) == 0 && !l.leader {
		l.mu.Unlock()
		// A flush that already took its batch (leader cleared) may still
		// be writing under wmu; wait it out so Sync's promise covers async
		// appends that just left the queue, then surface its error.
		l.wmu.Lock()
		l.wmu.Unlock() //nolint:staticcheck // barrier, not a critical section
		l.mu.Lock()
		err := l.failed
		l.mu.Unlock()
		return err
	}
	done := make(chan error, 1)
	l.pend = append(l.pend, pendingRec{done: done})
	lead := !l.leader
	if lead {
		l.leader = true
	} else {
		l.kickLeader()
	}
	l.mu.Unlock()
	if lead {
		l.flush()
	}
	return <-done
}

func (l *Log) gateLocked() error {
	if l.failed != nil {
		return l.failed
	}
	if l.closed {
		return ErrClosed
	}
	return nil
}

// kickLeader cuts the current leader's window short. Callers hold mu, as
// flush does when it takes a batch and drops that round's kick, so a kick
// always belongs to the round whose batch is still pending and none meant
// for the next round is lost.
func (l *Log) kickLeader() {
	select {
	case l.kick <- struct{}{}:
	default:
	}
}

// flush is run by the elected leader: it takes the pending batch (in
// arrival order, serialized by wmu so batches land in election order),
// writes it in one Write, fsyncs once, and wakes every waiter.
func (l *Log) flush() {
	l.wmu.Lock()
	l.mu.Lock()
	batch := l.pend
	l.pend = nil
	l.leader = false
	select {
	case <-l.kick: // drop a stale kick meant for this round
	default:
	}
	l.mu.Unlock()
	err := l.writeBatch(batch)
	if err != nil {
		// Wedge before releasing wmu so a concurrent Sync barrier cannot
		// observe the write lock free but the failure not yet recorded.
		l.mu.Lock()
		if l.failed == nil {
			l.failed = err
		}
		l.mu.Unlock()
		l.met.errs.Inc()
	}
	l.wmu.Unlock()
	for _, p := range batch {
		if p.done != nil {
			p.done <- err
		}
	}
}

// writeBatch appends the batch to the active segment (creating one when
// needed) and fsyncs. Caller holds wmu.
func (l *Log) writeBatch(batch []pendingRec) error {
	var buf []byte
	count := 0
	for _, p := range batch {
		if p.frame != nil {
			buf = append(buf, p.frame...)
			count++
		}
	}
	if count == 0 {
		return nil // only Sync markers: prior flushes already synced
	}
	t0 := time.Now()
	if l.f == nil {
		if err := l.createSegmentLocked(); err != nil {
			return err
		}
	}
	if _, err := l.f.Write(buf); err != nil {
		return fmt.Errorf("store: segment write: %w", err)
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("store: segment fsync: %w", err)
	}
	l.size += int64(len(buf))
	l.seq.Add(uint64(count))
	l.met.commits.Inc()
	l.met.walBytes.Add(uint64(len(buf)))
	l.met.batchRecs.Observe(float64(count))
	l.met.commitSec.ObserveSince(t0)
	if l.size >= l.opt.SegmentBytes {
		l.rollLocked()
	}
	return nil
}

// createSegmentLocked starts the segment whose first record is the next
// sequence number. Caller holds wmu. The header rides the first batch's
// fsync.
func (l *Log) createSegmentLocked() error {
	f, err := l.b.Create(segName(l.seq.Load()))
	if err != nil {
		return fmt.Errorf("store: create segment: %w", err)
	}
	hdr := append([]byte(walMagic), 0, 0, 0, 0, 0, 0, 0, 0)
	binary.BigEndian.PutUint64(hdr[len(walMagic):], l.seq.Load())
	if _, err := f.Write(hdr); err != nil {
		_ = f.Close()
		return fmt.Errorf("store: segment header: %w", err)
	}
	l.f = f
	l.size = hdrSize
	l.segCount++
	l.met.segments.Set(int64(l.segCount))
	return nil
}

// rollLocked closes the active segment; the next flush starts a fresh
// one. Caller holds wmu.
func (l *Log) rollLocked() {
	if l.f != nil {
		_ = l.f.Close()
		l.f = nil
		l.size = 0
	}
}

// Close flushes whatever is pending and closes the active segment.
// Idempotent; returns the flush error, if any.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.mu.Unlock()
	err := l.Sync()
	l.mu.Lock()
	l.closed = true
	l.mu.Unlock()
	l.wmu.Lock()
	l.rollLocked()
	l.wmu.Unlock()
	return err
}
