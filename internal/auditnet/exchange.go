package auditnet

import (
	"fmt"
	"time"

	"pvr/internal/aspath"
	"pvr/internal/gossip"
	"pvr/internal/netx"
)

// FrameConn is the transport an exchange runs over: netx.Conn (TCP, used
// by cmd/pvrd) and netx.Endpoint (buffered in-process link) both satisfy
// it, and netx.Pipe's rendezvous conns work because the protocol is a
// strict ping-pong.
type FrameConn interface {
	Send(netx.Frame) error
	Recv() (netx.Frame, error)
}

// Stats reports what one anti-entropy exchange moved.
type Stats struct {
	// InSync is true when the summary digests matched and the exchange
	// ended after two frames.
	InSync bool
	// Frames, BytesSent, BytesRecv count wire traffic (header included).
	Frames    int
	BytesSent int64
	BytesRecv int64
	// StatementsSent / StatementsRecv count shipped records.
	StatementsSent int
	StatementsRecv int
	// NewStatements counts received records that were new to this store.
	NewStatements int
	// ConflictsSent / ConflictsRecv / NewConflicts count evidence records.
	ConflictsSent int
	ConflictsRecv int
	NewConflicts  int
	// Rejected counts received records or evidence that failed
	// verification (forged signatures, unknown origins).
	Rejected int
}

// Bytes returns total bytes moved in both directions.
func (s *Stats) Bytes() int64 { return s.BytesSent + s.BytesRecv }

// Reconcile runs the initiator side of one anti-entropy round with a peer.
//
// The protocol is a strict alternation (initiator always sends a step
// first), so it is deadlock-free even over unbuffered rendezvous pipes:
//
//	DIGEST(summary)    ⇄  — stop here when stores already match
//	DIGEST(origins)    ⇄  per-origin digests + conflict keys
//	DIGEST(groups)     ⇄  (origin, epoch) digests for differing origins
//	WANT               ⇄  groups wanted (minus held hashes) + conflict keys
//	STATEMENTS         ⇄  only the missing statements
//	CONFLICT           ⇄  wanted evidence + evidence detected this round
func (a *Auditor) Reconcile(c FrameConn) (*Stats, error) {
	return a.exchange(c, true)
}

// Respond runs the responder side of one anti-entropy round; a daemon
// calls it once per accepted gossip connection.
//
// Neither side takes a context: an exchange blocks only on the
// connection, so a caller bounds it by closing the connection when its
// context ends (context.AfterFunc), and the blocked frame read returns.
func (a *Auditor) Respond(c FrameConn) (*Stats, error) {
	return a.exchange(c, false)
}

// xfer is one ping-pong step: the initiator sends then receives, the
// responder receives (handing the inbound frame to build) then sends.
type xfer struct {
	conn      FrameConn
	initiator bool
	stats     *Stats
}

func (x *xfer) send(f netx.Frame) error {
	size := len(f.Payload)
	err := x.conn.Send(f)
	// Every exchange frame is freshly encoded into a pooled buffer and
	// never referenced after the send (FrameConn does not retain it), so
	// recycle unconditionally.
	netx.PutBuf(f.Payload)
	if err != nil {
		return err
	}
	x.stats.Frames++
	x.stats.BytesSent += int64(5 + size)
	return nil
}

func (x *xfer) recv(wantType uint8) (netx.Frame, error) {
	f, err := x.conn.Recv()
	if err != nil {
		return f, err
	}
	x.stats.Frames++
	x.stats.BytesRecv += int64(5 + len(f.Payload))
	if f.Type != wantType {
		return f, fmt.Errorf("auditnet: protocol error: got frame %#x, want %#x", f.Type, wantType)
	}
	return f, nil
}

// step performs one alternation: out is what this side sends; the returned
// frame is what the peer sent for the same step. When out must be derived
// from the peer's frame (responder side), pass build instead.
func (x *xfer) step(wantType uint8, build func(in *netx.Frame) (netx.Frame, error)) (netx.Frame, error) {
	if x.initiator {
		out, err := build(nil)
		if err != nil {
			return netx.Frame{}, err
		}
		if err := x.send(out); err != nil {
			return netx.Frame{}, err
		}
		return x.recv(wantType)
	}
	in, err := x.recv(wantType)
	if err != nil {
		return netx.Frame{}, err
	}
	out, err := build(&in)
	if err != nil {
		return netx.Frame{}, err
	}
	if err := x.send(out); err != nil {
		return netx.Frame{}, err
	}
	return in, nil
}

func digestFrame(kind uint8, body []byte) netx.Frame {
	if len(body) == 0 || body[0] != kind {
		panic("auditnet: digest frame kind mismatch")
	}
	return netx.Frame{Type: FrameDigest, Payload: body}
}

func (a *Auditor) exchange(c FrameConn, initiator bool) (*Stats, error) {
	t0 := time.Now()
	st := &Stats{}
	// One deferred fold covers every return path, including protocol
	// aborts — an aborted round still moved its bytes.
	defer func() {
		a.met.rounds.Inc()
		if st.InSync {
			a.met.roundsInSync.Inc()
		}
		a.met.roundSec.ObserveSince(t0)
		a.met.bytesSent.Add(uint64(st.BytesSent))
		a.met.bytesRecv.Add(uint64(st.BytesRecv))
		a.met.stmtsNew.Add(uint64(st.NewStatements))
		a.met.conflNew.Add(uint64(st.NewConflicts))
		a.met.rejected.Add(uint64(st.Rejected))
	}()
	x := &xfer{conn: c, initiator: initiator, stats: st}

	// 1. Summary digests: one hash each for the statement store and the
	// conflict set. Synchronized peers stop here.
	mySum := a.store.Summary()
	in, err := x.step(FrameDigest, func(*netx.Frame) (netx.Frame, error) {
		return digestFrame(digestSummary, mySum.encode()), nil
	})
	if err != nil {
		return st, err
	}
	peerSum, err := decodeSummaryFrame(in)
	if err != nil {
		return st, err
	}
	if peerSum.Store == mySum.Store && peerSum.Conflicts == mySum.Conflicts {
		st.InSync = true
		return st, nil
	}

	// 2. Per-origin digests plus the full conflict key set.
	myOrigins := a.store.OriginDigests()
	in, err = x.step(FrameDigest, func(*netx.Frame) (netx.Frame, error) {
		return digestFrame(digestOrigins, myOrigins.encode()), nil
	})
	if err != nil {
		return st, err
	}
	peerOrigins, err := decodeOriginsFrame(in)
	if err != nil {
		return st, err
	}

	// 3. Group digests, but only for origins whose roll-up digest differs
	// (or that the peer lacks entirely) — this is what keeps a round's cost
	// proportional to the difference, not the store.
	in, err = x.step(FrameDigest, func(*netx.Frame) (netx.Frame, error) {
		diff := diffOrigins(myOrigins.Origins, peerOrigins.Origins)
		if diff == nil {
			diff = []aspath.ASN{} // non-nil: GroupDigests(nil) means "all"
		}
		gm := a.store.GroupDigests(diff)
		return digestFrame(digestGroups, gm.encode()), nil
	})
	if err != nil {
		return st, err
	}
	peerGroups, err := decodeGroupsFrame(in)
	if err != nil {
		return st, err
	}

	// 4. Wants: differing groups (with held content hashes, so the peer
	// ships only the delta) and missing conflict keys.
	in, err = x.step(FrameWant, func(*netx.Frame) (netx.Frame, error) {
		wm := &wantMsg{
			Groups:    a.store.Wants(peerGroups.Groups),
			Conflicts: a.store.MissingConflictKeys(peerOrigins.ConflictKeys),
		}
		return netx.Frame{Type: FrameWant, Payload: wm.encode()}, nil
	})
	if err != nil {
		return st, err
	}
	peerWant, err := decodeWantFrame(in)
	if err != nil {
		return st, err
	}

	// 5. Statements. Both sides ingest before step 6 so evidence detected
	// from the incoming delta can ride back on this same round.
	var fresh []*gossip.Conflict
	ingest := func(in *netx.Frame) error {
		sm, err := decodeStmtsFrame(*in)
		if err != nil {
			return err
		}
		st.StatementsRecv += len(sm.Records)
		for _, rec := range sm.Records {
			added, conflict, err := a.AddRecord(rec)
			if err != nil {
				st.Rejected++
				continue
			}
			if added {
				st.NewStatements++
			}
			if conflict != nil {
				fresh = append(fresh, conflict)
			}
		}
		return nil
	}
	if initiator {
		out := &stmtsMsg{Records: a.store.Serve(peerWant.Groups)}
		st.StatementsSent += len(out.Records)
		if err := x.send(netx.Frame{Type: FrameStatements, Payload: out.encode()}); err != nil {
			return st, err
		}
		in, err := x.recv(FrameStatements)
		if err != nil {
			return st, err
		}
		if err := ingest(&in); err != nil {
			return st, err
		}
	} else {
		in, err := x.recv(FrameStatements)
		if err != nil {
			return st, err
		}
		if err := ingest(&in); err != nil {
			return st, err
		}
		out := &stmtsMsg{Records: a.store.Serve(peerWant.Groups)}
		st.StatementsSent += len(out.Records)
		if err := x.send(netx.Frame{Type: FrameStatements, Payload: out.encode()}); err != nil {
			return st, err
		}
	}

	// 6. Conflicts: what the peer asked for, plus evidence detected during
	// this round's ingest that the peer did not declare.
	peerKnows := make(map[Hash]struct{}, len(peerOrigins.ConflictKeys))
	for _, k := range peerOrigins.ConflictKeys {
		peerKnows[k] = struct{}{}
	}
	buildConfl := func() netx.Frame {
		out, traces := a.store.ServeConflicts(peerWant.Conflicts)
		seen := make(map[Hash]struct{}, len(out))
		for _, c := range out {
			seen[ConflictKey(c)] = struct{}{}
		}
		for _, c := range fresh {
			k := ConflictKey(c)
			if _, dup := seen[k]; dup {
				continue
			}
			if _, known := peerKnows[k]; known {
				continue
			}
			seen[k] = struct{}{}
			out = append(out, c)
			// Fresh conflicts were just handled through AddRecord, so the
			// store already holds their trace metadata.
			traces = append(traces, a.store.ConflictTrace(k))
		}
		st.ConflictsSent += len(out)
		cm := &conflMsg{Conflicts: out, Traces: traces}
		return netx.Frame{Type: FrameConflict, Payload: cm.encode()}
	}
	ingestConfl := func(in *netx.Frame) error {
		cm, err := decodeConflFrame(*in)
		if err != nil {
			return err
		}
		st.ConflictsRecv += len(cm.Conflicts)
		for i, c := range cm.Conflicts {
			peerKnows[ConflictKey(c)] = struct{}{}
			isNew, err := a.HandleConflict(c, cm.traceAt(i))
			if err != nil {
				st.Rejected++
				continue
			}
			if isNew {
				st.NewConflicts++
			}
		}
		return nil
	}
	if initiator {
		if err := x.send(buildConfl()); err != nil {
			return st, err
		}
		in, err := x.recv(FrameConflict)
		if err != nil {
			return st, err
		}
		if err := ingestConfl(&in); err != nil {
			return st, err
		}
	} else {
		in, err := x.recv(FrameConflict)
		if err != nil {
			return st, err
		}
		if err := ingestConfl(&in); err != nil {
			return st, err
		}
		if err := x.send(buildConfl()); err != nil {
			return st, err
		}
	}
	return st, nil
}

// --- frame decode helpers ---

func decodeSummaryFrame(f netx.Frame) (*summaryMsg, error) {
	kind, body, err := decodeDigest(f.Payload)
	if err != nil {
		return nil, err
	}
	if kind != digestSummary {
		return nil, fmt.Errorf("%w: digest kind %d, want summary", ErrWire, kind)
	}
	return decodeSummary(body)
}

func decodeOriginsFrame(f netx.Frame) (*originsMsg, error) {
	kind, body, err := decodeDigest(f.Payload)
	if err != nil {
		return nil, err
	}
	if kind != digestOrigins {
		return nil, fmt.Errorf("%w: digest kind %d, want origins", ErrWire, kind)
	}
	return decodeOrigins(body)
}

func decodeGroupsFrame(f netx.Frame) (*groupsMsg, error) {
	kind, body, err := decodeDigest(f.Payload)
	if err != nil {
		return nil, err
	}
	if kind != digestGroups {
		return nil, fmt.Errorf("%w: digest kind %d, want groups", ErrWire, kind)
	}
	return decodeGroups(body)
}

func decodeWantFrame(f netx.Frame) (*wantMsg, error)   { return decodeWant(f.Payload) }
func decodeStmtsFrame(f netx.Frame) (*stmtsMsg, error) { return decodeStmts(f.Payload) }
func decodeConflFrame(f netx.Frame) (*conflMsg, error) { return decodeConfl(f.Payload) }
