package main

import (
	"bytes"
	"context"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"pvr"
)

// lockedBuffer is the daemon's stderr: os/exec copies into it from a
// goroutine of its own while the test polls it.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestSIGTERMCheckpointsStore runs the real daemon binary with -store,
// stops it with SIGTERM, and asserts the graceful-shutdown contract: the
// store is checkpointed on the way down, so reopening it replays zero
// WAL records and resumes the sealed window sequence.
func TestSIGTERMCheckpointsStore(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the daemon binary")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "pvrd")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build pvrd: %v\n%s", err, out)
	}

	storeDir := filepath.Join(dir, "state")
	var stderr lockedBuffer
	cmd := exec.Command(bin,
		"-listen", "127.0.0.1:0",
		"-asn", "64500",
		"-originate", "203.0.113.0/24,198.51.100.0/24",
		"-shards", "2",
		"-hold", "0",
		"-store", storeDir,
	)
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	// The daemon logs "up as ..." once Open (and the initial epoch seal,
	// already write-ahead logged to the store) has finished.
	deadline := time.Now().Add(15 * time.Second)
	for !strings.Contains(stderr.String(), "up as") {
		if time.Now().After(deadline) {
			t.Fatalf("daemon never came up; log:\n%s", stderr.String())
		}
		time.Sleep(20 * time.Millisecond)
	}

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("daemon exited uncleanly on SIGTERM: %v\nlog:\n%s", err, stderr.String())
	}
	if !strings.Contains(stderr.String(), "shut down") {
		t.Fatalf("no shutdown summary logged:\n%s", stderr.String())
	}

	// Reopen the daemon's store through the library: a clean stop must
	// have checkpointed, leaving nothing to replay.
	p, err := pvr.Open(context.Background(),
		pvr.WithASN(64500),
		pvr.WithStore(storeDir),
		pvr.WithOriginate(pvr.MustParsePrefix("203.0.113.0/24"), pvr.MustParsePrefix("198.51.100.0/24")),
		pvr.WithShards(2),
		pvr.WithHoldTime(0),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	st := p.Stats().Store
	if !st.Enabled || st.RecoveredEpoch != 1 {
		t.Fatalf("recovered epoch = %d, want 1", st.RecoveredEpoch)
	}
	if st.RecoveredRecords != 0 {
		t.Fatalf("SIGTERM stop left %d WAL records to replay, want 0 (checkpoint missing)", st.RecoveredRecords)
	}
	if got := p.Stats().Window; got != st.RecoveredWindow+1 {
		t.Fatalf("resumed window = %d, want %d (recovered %d + 1)", got, st.RecoveredWindow+1, st.RecoveredWindow)
	}
}
