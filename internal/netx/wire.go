package netx

import (
	"encoding/binary"
	"errors"

	"pvr/internal/obs"
)

// Shared frame-payload encoding helpers: the big-endian, length-prefixed
// idiom every wire protocol in this repository (the audit anti-entropy
// exchange, the disclosure query plane) builds its payloads from. One
// implementation keeps the bounds discipline — counts sanity-checked
// against bytes remaining, exact-length decodes — identical everywhere.

// ErrMalformedPayload is wrapped by every payload decoding error.
var ErrMalformedPayload = errors.New("netx: malformed frame payload")

// AppendU32 appends v big-endian.
func AppendU32(b []byte, v uint32) []byte {
	var u [4]byte
	binary.BigEndian.PutUint32(u[:], v)
	return append(b, u[:]...)
}

// AppendU64 appends v big-endian.
func AppendU64(b []byte, v uint64) []byte {
	var u [8]byte
	binary.BigEndian.PutUint64(u[:], v)
	return append(b, u[:]...)
}

// AppendBytes appends p with a u32 length prefix.
func AppendBytes(b, p []byte) []byte {
	b = AppendU32(b, uint32(len(p)))
	return append(b, p...)
}

// PayloadReader consumes a frame payload front to back. Every method
// returns ErrMalformedPayload (possibly wrapped) when the remaining
// bytes cannot satisfy the read; Done asserts the payload was consumed
// exactly.
type PayloadReader struct {
	B []byte
}

// Take consumes the next n bytes (aliasing the payload, not copying).
func (r *PayloadReader) Take(n int) ([]byte, error) {
	if n < 0 || len(r.B) < n {
		return nil, ErrMalformedPayload
	}
	out := r.B[:n]
	r.B = r.B[n:]
	return out, nil
}

// U8 consumes one byte.
func (r *PayloadReader) U8() (uint8, error) {
	b, err := r.Take(1)
	if err != nil {
		return 0, err
	}
	return b[0], nil
}

// U32 consumes a big-endian uint32.
func (r *PayloadReader) U32() (uint32, error) {
	b, err := r.Take(4)
	if err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint32(b), nil
}

// U64 consumes a big-endian uint64.
func (r *PayloadReader) U64() (uint64, error) {
	b, err := r.Take(8)
	if err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint64(b), nil
}

// Bytes consumes a u32-length-prefixed byte string (see AppendBytes).
func (r *PayloadReader) Bytes() ([]byte, error) {
	n, err := r.U32()
	if err != nil {
		return nil, err
	}
	return r.Take(int(n))
}

// Count reads a u32 element count and sanity-bounds it against the bytes
// remaining, given a minimum encoded size per element, so a corrupt count
// cannot force a huge allocation.
func (r *PayloadReader) Count(minPer int) (int, error) {
	n, err := r.U32()
	if err != nil {
		return 0, err
	}
	if minPer > 0 && int(n) > len(r.B)/minPer {
		return 0, ErrMalformedPayload
	}
	return int(n), nil
}

// Done reports an error unless the payload was consumed exactly.
func (r *PayloadReader) Done() error {
	if len(r.B) != 0 {
		return ErrMalformedPayload
	}
	return nil
}

// Remaining returns the number of unconsumed payload bytes.
func (r *PayloadReader) Remaining() int { return len(r.B) }

// ---------------------------------------------------------------------------
// Trailing extensions
//
// Versioned optional fields ride after a message's fixed encoding as a
// sequence of (tag u8, u32-length-prefixed body) blocks running to the end
// of the payload. Old decoders predating extensions fail their exact-length
// Done() check on extended frames, so extension-aware decoders call
// ReadExts between the fixed fields and Done; a decoder that recognises no
// tags still skips every block, which is what makes unknown (future)
// extensions safe to ignore.

// Extension tags. Tag values are shared across every plane's framing so a
// trace context looks the same in an audit STATEMENTS frame and a
// disclosure VIEW.
const (
	// ExtTrace carries a distributed trace context
	// (obs.TraceContext.AppendWire, 24 bytes).
	ExtTrace uint8 = 0x01
	// ExtTraceList carries trace contexts for a frame whose elements are
	// concatenated without per-element framing: a u32 pair count followed
	// by (u32 element index, trace context) pairs.
	ExtTraceList uint8 = 0x02
)

// AppendExt appends one trailing extension block.
func AppendExt(b []byte, tag uint8, body []byte) []byte {
	b = append(b, tag)
	return AppendBytes(b, body)
}

// ReadExts consumes every trailing extension block, calling fn for each.
// Unknown tags must be ignored by fn (it simply returns nil); bodies alias
// the payload. fn errors abort the scan.
func ReadExts(r *PayloadReader, fn func(tag uint8, body []byte) error) error {
	for r.Remaining() > 0 {
		tag, err := r.U8()
		if err != nil {
			return err
		}
		body, err := r.Bytes()
		if err != nil {
			return err
		}
		if fn != nil {
			if err := fn(tag, body); err != nil {
				return err
			}
		}
	}
	return nil
}

// AppendTraceExt appends an ExtTrace block carrying tc; nothing is
// appended when tc is zero, so an untraced message is byte-identical to
// its pre-tracing encoding.
func AppendTraceExt(b []byte, tc obs.TraceContext) []byte {
	if tc.IsZero() {
		return b
	}
	return AppendExt(b, ExtTrace, tc.AppendWire(nil))
}

// ReadTraceExt consumes every trailing extension block, returning the
// ExtTrace context (zero when absent) and skipping unknown tags — the
// forward-compatibility path for frames from newer peers.
func ReadTraceExt(r *PayloadReader) (obs.TraceContext, error) {
	var tc obs.TraceContext
	err := ReadExts(r, func(tag uint8, body []byte) error {
		if tag != ExtTrace {
			return nil
		}
		var err error
		tc, err = obs.TraceContextFromWire(body)
		return err
	})
	return tc, err
}

// AppendTraceListExt appends an ExtTraceList block carrying the non-zero
// entries of traces as (element index, context) pairs; no block is
// appended when every entry is zero.
func AppendTraceListExt(b []byte, traces []obs.TraceContext) []byte {
	nz := 0
	for _, tc := range traces {
		if !tc.IsZero() {
			nz++
		}
	}
	if nz == 0 {
		return b
	}
	body := AppendU32(make([]byte, 0, 4+nz*(4+obs.TraceWireSize)), uint32(nz))
	for i, tc := range traces {
		if !tc.IsZero() {
			body = tc.AppendWire(AppendU32(body, uint32(i)))
		}
	}
	return AppendExt(b, ExtTraceList, body)
}

// ReadTraceListExt consumes every trailing extension block, returning an
// ExtTraceList as a dense slice of n contexts (nil when absent, zero where
// an element is untraced) and skipping unknown tags. Out-of-range indices
// are ignored rather than rejected: the extension is advisory metadata.
func ReadTraceListExt(r *PayloadReader, n int) ([]obs.TraceContext, error) {
	var traces []obs.TraceContext
	err := ReadExts(r, func(tag uint8, body []byte) error {
		if tag != ExtTraceList {
			return nil
		}
		br := &PayloadReader{B: body}
		cnt, err := br.Count(4 + obs.TraceWireSize)
		if err != nil {
			return err
		}
		traces = make([]obs.TraceContext, n)
		for i := 0; i < cnt; i++ {
			idx, err := br.U32()
			if err != nil {
				return err
			}
			tb, err := br.Take(obs.TraceWireSize)
			if err != nil {
				return err
			}
			tc, err := obs.TraceContextFromWire(tb)
			if err != nil {
				return err
			}
			if int(idx) < n {
				traces[idx] = tc
			}
		}
		return br.Done()
	})
	return traces, err
}
