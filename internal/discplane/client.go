package discplane

import (
	"errors"
	"fmt"

	"pvr/internal/netx"
)

// ErrNoAnswer is wrapped (beside the transport's own error) by every
// Fetch and FetchAnon failure that happened before a response frame
// arrived: the query could not be sent, or the connection ended while
// waiting. A caller that kept the connection from an earlier exchange
// cannot tell a restarted peer from a dead one by it, and may ask again
// on a fresh connection; once a frame has arrived, errors are about its
// contents and asking again would not help.
var ErrNoAnswer = errors.New("discplane: no answer on this connection")

// roundTrip sends one query frame (recycling the pooled payload) and
// receives the response frame.
func roundTrip(c FrameConn, typ uint8, payload []byte) (netx.Frame, error) {
	if err := netx.SendPooled(c, typ, payload); err != nil {
		return netx.Frame{}, fmt.Errorf("%w: %w", ErrNoAnswer, err)
	}
	f, err := c.Recv()
	if err != nil {
		return netx.Frame{}, fmt.Errorf("%w: %w", ErrNoAnswer, err)
	}
	return f, nil
}

// Fetch runs the client side of one disclosure query: send DISCLOSE,
// receive VIEW or DENY. A denial is returned as a *Denial error (match
// with errors.Is against ErrAccessDenied / ErrNotServed / ErrBadQuery).
// A gated query goes out signed (Query.Sign) unless the connection is a
// session the server has already bound to the requester (Server.Serve),
// in which case q.Sig may be empty.
// The returned view is structurally decoded and cross-checked against
// the query, but NOT verified — the caller owns signature, inclusion,
// and §3.3 content verification.
func Fetch(c FrameConn, q *Query) (*View, error) {
	payload, err := q.Encode()
	if err != nil {
		return nil, err
	}
	f, err := roundTrip(c, FrameDisclose, payload)
	if err != nil {
		return nil, err
	}
	switch f.Type {
	case FrameDeny:
		d, err := DecodeDenial(f.Payload)
		if err != nil {
			return nil, err
		}
		return nil, d
	case FrameView:
		v, err := DecodeView(f.Payload)
		if err != nil {
			return nil, err
		}
		// The answer must be for what was asked: role, prefix, and epoch
		// are cross-checked here so a confused (or malicious) server
		// cannot satisfy a promisee query with an observer view.
		if v.Role != q.Role {
			return nil, fmt.Errorf("%w: granted role %s, requested %s", ErrWire, v.Role, q.Role)
		}
		if v.Sealed.MC.Prefix != q.Prefix || v.Sealed.MC.Epoch != q.Epoch {
			return nil, fmt.Errorf("%w: view covers (%s, epoch %d), query asked (%s, epoch %d)",
				ErrWire, v.Sealed.MC.Prefix, v.Sealed.MC.Epoch, q.Prefix, q.Epoch)
		}
		return v, nil
	}
	return nil, fmt.Errorf("discplane: protocol error: got frame %#x", f.Type)
}

// FetchAnon runs the client side of one anonymous provider query: send
// DISCLOSE-ANON (q must already be ring-signed via AnonQuery.Sign),
// receive a provider-role VIEW or DENY. The returned view is decoded and
// cross-checked against the query — including that the opened position is
// the one asked for — but NOT verified; the caller runs
// engine.VerifyProviderView against its own announcement, which needs no
// identity beyond the route it already holds.
func FetchAnon(c FrameConn, q *AnonQuery) (*View, error) {
	payload, err := q.Encode()
	if err != nil {
		return nil, err
	}
	f, err := roundTrip(c, FrameDiscloseAnon, payload)
	if err != nil {
		return nil, err
	}
	switch f.Type {
	case FrameDeny:
		d, err := DecodeDenial(f.Payload)
		if err != nil {
			return nil, err
		}
		return nil, d
	case FrameView:
		v, err := DecodeView(f.Payload)
		if err != nil {
			return nil, err
		}
		if v.Role != RoleProvider {
			return nil, fmt.Errorf("%w: granted role %s, requested anonymous provider", ErrWire, v.Role)
		}
		if v.Sealed.MC.Prefix != q.Prefix || v.Sealed.MC.Epoch != q.Epoch {
			return nil, fmt.Errorf("%w: view covers (%s, epoch %d), query asked (%s, epoch %d)",
				ErrWire, v.Sealed.MC.Prefix, v.Sealed.MC.Epoch, q.Prefix, q.Epoch)
		}
		if v.Position != q.Position {
			return nil, fmt.Errorf("%w: opened position %d, asked %d", ErrWire, v.Position, q.Position)
		}
		return v, nil
	}
	return nil, fmt.Errorf("discplane: protocol error: got frame %#x", f.Type)
}
