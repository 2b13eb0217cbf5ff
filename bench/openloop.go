package main

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// poissonSchedule draws the due times (offsets from the start) of an open
// loop at the given mean rate: exponential gaps, cut off at length.
func poissonSchedule(rng *rand.Rand, perSecond float64, length time.Duration) []time.Duration {
	var due []time.Duration
	for t := 0.0; ; {
		t += rng.ExpFloat64() / perSecond
		d := time.Duration(t * float64(time.Second))
		if d >= length {
			return due
		}
		due = append(due, d)
	}
}

// openLoop issues op(i) for every due time over conns connections. A free
// connection claims the next query in order and holds it until its due
// time, never sending before; when every connection is busy the queries
// that fall due wait. A query's latency runs from its due time, not from
// when a connection got to it, so a stall in the system is charged to every
// query that was due while it lasted. late is how long after its due time a
// connection actually started each query. Both are in µs, indexed like due.
func openLoop(due []time.Duration, conns int, op func(i int)) (latency, late samples) {
	latency, late = make(samples, len(due)), make(samples, len(due))
	var (
		wg    sync.WaitGroup
		next  atomic.Int64
		start = time.Now()
	)
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(due) {
					return
				}
				waitUntil(start.Add(due[i]))
				sent := time.Since(start)
				op(i)
				latency[i] = us(time.Since(start) - due[i])
				late[i] = us(sent - due[i])
			}
		}()
	}
	wg.Wait()
	return latency, late
}

// waitUntil returns at t, not before and (scheduling permitting) within
// a few tens of µs after. It sleeps in the kernel directly: time.Sleep wakes
// through the runtime's poller, whose timeout has millisecond resolution,
// and on the reference box that rounds every wait up to the next ~1.1 ms
// tick, several times what a query takes. Spinning instead would take one
// of the two cores from the fleet.
func waitUntil(t time.Time) {
	if !time.Now().Before(t) {
		return
	}
	// The kernel may wake a sleeper late by the sleeping thread's timer
	// slack, 50 µs unless told otherwise: a third of a query's service
	// time, charged to the system as latency. Ask for 1 ns on the thread
	// that is about to sleep (best effort: without it the wait is later,
	// not wrong).
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	const prSetTimerSlack = 29
	_, _, _ = syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, 1, 0)
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // woken early by a signal: loop
	}
}
