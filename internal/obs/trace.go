package obs

import (
	"encoding/json"
	"sync"
	"time"
)

// EventKind labels a lifecycle event in an announcement's journey through
// the system: accepted into the engine, sealed into a shard, gossiped to
// the audit network, disclosed to a querier, and — when a prover
// equivocates — recorded as a conviction.
type EventKind uint8

const (
	// EvAnnounceAccepted: the engine accepted a provider announcement.
	EvAnnounceAccepted EventKind = iota + 1
	// EvShardSealed: a shard's Merkle batch was (re)built and signed.
	EvShardSealed
	// EvSealGossiped: a seal statement entered the audit record store
	// (locally observed or learned from a peer during anti-entropy).
	EvSealGossiped
	// EvDisclosureServed: the query plane granted a view.
	EvDisclosureServed
	// EvConvictionRecorded: conflicting seals convicted an AS.
	EvConvictionRecorded
	// EvWindowSealed: the update plane flushed a churn window.
	EvWindowSealed
	// EvRouteVerified: a BGP session verified a peer's sealed route.
	EvRouteVerified
	// EvRouteRejected: a peer's sealed route failed verification.
	EvRouteRejected
)

var eventKindNames = [...]string{
	EvAnnounceAccepted:   "AnnounceAccepted",
	EvShardSealed:        "ShardSealed",
	EvSealGossiped:       "SealGossiped",
	EvDisclosureServed:   "DisclosureServed",
	EvConvictionRecorded: "ConvictionRecorded",
	EvWindowSealed:       "WindowSealed",
	EvRouteVerified:      "RouteVerified",
	EvRouteRejected:      "RouteRejected",
}

// String returns the canonical camel-case kind name.
func (k EventKind) String() string {
	if int(k) < len(eventKindNames) && eventKindNames[k] != "" {
		return eventKindNames[k]
	}
	return "Unknown"
}

// MarshalJSON renders the kind as its name, so /trace output is readable
// without a decoder ring.
func (k EventKind) MarshalJSON() ([]byte, error) {
	return json.Marshal(k.String())
}

// UnmarshalJSON accepts the name form MarshalJSON emits (an unknown name
// decodes as kind 0), so /trace consumers can round-trip events.
func (k *EventKind) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	for i, name := range eventKindNames {
		if name == s {
			*k = EventKind(i)
			return nil
		}
	}
	*k = 0
	return nil
}

// Event is one traced lifecycle event. Seq is a monotonically increasing
// sequence number assigned at Record time; gaps in a snapshot mean the
// ring wrapped past unread events.
type Event struct {
	Seq    uint64    `json:"seq"`
	At     time.Time `json:"at"`
	Kind   EventKind `json:"kind"`
	Trace  TraceID   `json:"trace,omitzero"`
	Span   SpanID    `json:"span,omitzero"`
	Epoch  uint64    `json:"epoch,omitempty"`
	Window uint64    `json:"window,omitempty"`
	Shard  int       `json:"shard,omitempty"`
	Prefix string    `json:"prefix,omitempty"`
	AS     uint32    `json:"as,omitempty"`
	Note   string    `json:"note,omitempty"`
}

// SetTrace stamps ev with tc's trace and span identities and returns it;
// a zero context leaves the event untraced.
func (ev Event) SetTrace(tc TraceContext) Event {
	if !tc.IsZero() {
		ev.Trace = tc.TraceID
		ev.Span = tc.Span
	}
	return ev
}

// Tracer is a fixed-capacity ring buffer of Events. Record overwrites the
// oldest entry once full, so the tracer holds the most recent window of
// activity at a bounded memory cost; the ring is grown as it first fills,
// so a tracer that has seen a handful of events holds a handful. A nil *Tracer discards records, so
// instrumented code never branches on whether tracing is wired up.
type Tracer struct {
	mu   sync.Mutex
	buf  []Event // the ring; len(buf) == min(seq, size)
	size uint64
	seq  uint64 // total events ever recorded
}

// NewTracer returns a tracer holding the most recent capacity events
// (minimum 16).
func NewTracer(capacity int) *Tracer {
	if capacity < 16 {
		capacity = 16
	}
	return &Tracer{size: uint64(capacity)}
}

// Record appends ev, stamping Seq and (when unset) At. Safe on a nil
// tracer and for concurrent use.
func (t *Tracer) Record(ev Event) {
	if t == nil {
		return
	}
	if ev.At.IsZero() {
		ev.At = time.Now()
	}
	t.mu.Lock()
	ev.Seq = t.seq
	if t.seq < t.size {
		if len(t.buf) == cap(t.buf) {
			grown := make([]Event, len(t.buf), min(max(16, 2*uint64(len(t.buf))), t.size))
			copy(grown, t.buf)
			t.buf = grown
		}
		t.buf = append(t.buf, ev)
	} else {
		t.buf[t.seq%t.size] = ev
	}
	t.seq++
	t.mu.Unlock()
}

// Seq returns the total number of events recorded since creation.
func (t *Tracer) Seq() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.seq
}

// Since returns every retained event with Seq >= seq, oldest first, plus
// the cursor to pass next time (the sequence number one past the newest
// event ever recorded). If the ring has wrapped past seq, the returned
// slice starts at the oldest retained event — the caller can detect the
// gap by comparing the first event's Seq against its cursor.
func (t *Tracer) Since(seq uint64) (events []Event, next uint64) {
	if t == nil {
		return nil, 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	oldest := uint64(0)
	if t.seq > t.size {
		oldest = t.seq - t.size
	}
	if seq < oldest {
		seq = oldest
	}
	if seq > t.seq {
		seq = t.seq
	}
	out := make([]Event, 0, t.seq-seq)
	for i := seq; i < t.seq; i++ {
		out = append(out, t.buf[i%t.size])
	}
	return out, t.seq
}

// Recent returns up to n of the most recent events, oldest first. n <= 0
// means everything retained.
func (t *Tracer) Recent(n int) []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	have := min(t.seq, t.size)
	if n > 0 && uint64(n) < have {
		have = uint64(n)
	}
	out := make([]Event, 0, have)
	for i := t.seq - have; i < t.seq; i++ {
		out = append(out, t.buf[i%t.size])
	}
	return out
}
