package main

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"pvr"
)

// frameOverhead is what netx framing adds to a payload on the wire: a
// 4-byte length and the 1-byte frame type.
const frameOverhead = 5

// countingTransport is the harness's view of the wire: a pvr.Transport
// decorator that counts dials, dial time, frames and bytes per listening
// address. Every connection in the fleet is dialled through it, so the
// dialling side's Send and Recv together see both directions of all
// traffic. It is owned by the benchmark; nothing in the program is touched.
type countingTransport struct {
	inner pvr.Transport

	mu     sync.Mutex
	planes map[string]*planeIO
}

// planeIO is the traffic to one listening address (one plane of A).
type planeIO struct {
	// recvEntered counts calls to Recv; notifyAt is the call number a
	// waiter wants to hear about on notify. They make sense on a plane with
	// one connection and one reader: A's BGP session to B.
	recvEntered, notifyAt atomic.Int64
	notify                chan struct{}

	dials, dialNanos    atomic.Int64
	framesOut, framesIn atomic.Int64
	bytesOut, bytesIn   atomic.Int64
	lastRecvType        atomic.Uint32
	capture             atomic.Bool // copy the next sent frame into captured
	captured            atomic.Pointer[pvr.Frame]
	dialMu              sync.Mutex
	dialSamples         samples // µs
}

func newCountingTransport(inner pvr.Transport) *countingTransport {
	return &countingTransport{inner: inner, planes: make(map[string]*planeIO)}
}

func (t *countingTransport) plane(addr string) *planeIO {
	t.mu.Lock()
	defer t.mu.Unlock()
	p := t.planes[addr]
	if p == nil {
		p = &planeIO{notify: make(chan struct{}, 1)}
		t.planes[addr] = p
	}
	return p
}

func (t *countingTransport) Listen(addr string, handle func(pvr.Conn)) (pvr.Listener, error) {
	return t.inner.Listen(addr, handle)
}

func (t *countingTransport) Dial(ctx context.Context, addr string) (pvr.Conn, error) {
	p := t.plane(addr)
	t0 := time.Now()
	c, err := t.inner.Dial(ctx, addr)
	if err != nil {
		return nil, err
	}
	d := time.Since(t0)
	p.dials.Add(1)
	p.dialNanos.Add(int64(d))
	p.dialMu.Lock()
	p.dialSamples = append(p.dialSamples, float64(d)/1e3)
	p.dialMu.Unlock()
	return &countingConn{Conn: c, p: p}, nil
}

type countingConn struct {
	pvr.Conn
	p *planeIO
}

func (c *countingConn) Send(f pvr.Frame) error {
	c.p.framesOut.Add(1)
	c.p.bytesOut.Add(int64(len(f.Payload)) + frameOverhead)
	if c.p.capture.CompareAndSwap(true, false) {
		// Senders recycle pooled payload buffers after Send: keep a copy.
		c.p.captured.Store(&pvr.Frame{Type: f.Type, Payload: append([]byte(nil), f.Payload...)})
	}
	return c.Conn.Send(f)
}

func (c *countingConn) Recv() (pvr.Frame, error) {
	// A reader that comes back for the next frame has finished with all
	// the frames before it: that is what waitConsumed waits for.
	if n := c.p.recvEntered.Add(1); n == c.p.notifyAt.Load() {
		select {
		case c.p.notify <- struct{}{}:
		default:
		}
	}
	f, err := c.Conn.Recv()
	if err == nil {
		c.p.framesIn.Add(1)
		c.p.bytesIn.Add(int64(len(f.Payload)) + frameOverhead)
		c.p.lastRecvType.Store(uint32(f.Type))
	}
	return f, err
}

// ioCounts is a point-in-time copy of one plane's counters.
type ioCounts struct {
	dials, dialNanos, frames, bytes int64
}

func (p *planeIO) counts() ioCounts {
	return ioCounts{
		dials:     p.dials.Load(),
		dialNanos: p.dialNanos.Load(),
		frames:    p.framesOut.Load() + p.framesIn.Load(),
		bytes:     p.bytesOut.Load() + p.bytesIn.Load(),
	}
}

func (a ioCounts) sub(b ioCounts) ioCounts {
	return ioCounts{a.dials - b.dials, a.dialNanos - b.dialNanos, a.frames - b.frames, a.bytes - b.bytes}
}

// takeCaptured returns the frame captured since capture was last set.
func (p *planeIO) takeCaptured() *pvr.Frame { return p.captured.Swap(nil) }

// replay sends a previously captured frame again on a fresh connection and
// returns the type of the frame that answers it.
func (t *countingTransport) replay(ctx context.Context, addr string, f pvr.Frame) (uint8, error) {
	c, err := t.Dial(ctx, addr)
	if err != nil {
		return 0, err
	}
	defer c.Close()
	if err := c.Send(f); err != nil {
		return 0, err
	}
	r, err := c.Recv()
	return r.Type, err
}

// waitConsumed blocks until the plane's single reader has received frames
// frames in total and has come back to Recv for the next one: everything up
// to frame number frames has been through the reader's handler. It is
// event-driven because polling a counter would mean sleeping (too coarse,
// see waitUntil) or spinning (takes a core from the fleet).
func (p *planeIO) waitConsumed(ctx context.Context, frames int64) error {
	p.notifyAt.Store(frames + 1)
	defer p.notifyAt.Store(0)
	for p.recvEntered.Load() < frames+1 {
		select {
		case <-p.notify:
		case <-ctx.Done():
			return fmt.Errorf("reader consumed %d of %d frames: %w", p.framesIn.Load(), frames, ctx.Err())
		}
	}
	return nil
}

// dialMedian is the median time of one Dial to this plane, in µs.
func (p *planeIO) dialMedian() float64 {
	p.dialMu.Lock()
	defer p.dialMu.Unlock()
	if len(p.dialSamples) == 0 {
		return 0
	}
	return p.dialSamples.median()
}
