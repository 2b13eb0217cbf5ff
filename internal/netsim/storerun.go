package netsim

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net/netip"
	"sync"
	"time"

	"pvr/internal/aspath"
	"pvr/internal/auditnet"
	"pvr/internal/core"
	"pvr/internal/discplane"
	"pvr/internal/engine"
	"pvr/internal/gossip"
	"pvr/internal/netx"
	"pvr/internal/obs"
	"pvr/internal/route"
	"pvr/internal/sigs"
	"pvr/internal/store"
	"pvr/internal/trace"
)

// StoreConfig parameterizes a durability run (experiment E18): an
// adversarial fault matrix — crash-restart mid-window, stale-window
// reuse after restart, disclosure-query replay against recovered nonce
// state — plus the group-commit performance sweep and recovery-time
// curve.
type StoreConfig struct {
	// Dir roots the file backend for the performance phases; "" runs
	// them on the in-memory backend (deterministic, but fsync is free,
	// so speedups are only meaningful with a real directory).
	Dir string
	// Appenders is the concurrency sweep for the group-commit phase
	// (default 1, 8, 32, 64).
	Appenders []int
	// AppendsPerAppender is each appender's record count (default 256).
	AppendsPerAppender int
	// RecordBytes sizes each appended record (default 128).
	RecordBytes int
	// RecoverySizes is the WAL record counts for the recovery-time curve
	// (default 1000, 5000, 10000, 20000).
	RecoverySizes []int
	// Windows is how many seal windows the crash scenario publishes
	// before the kill (default 3).
	Windows int
}

func (c *StoreConfig) fill() {
	if len(c.Appenders) == 0 {
		c.Appenders = []int{1, 8, 32, 64, 128}
	}
	if c.AppendsPerAppender < 1 {
		c.AppendsPerAppender = 256
	}
	if c.RecordBytes < 1 {
		c.RecordBytes = 128
	}
	if len(c.RecoverySizes) == 0 {
		c.RecoverySizes = []int{1000, 5000, 10000, 20000}
	}
	if c.Windows < 1 {
		c.Windows = 3
	}
}

// StoreScenario is one row of the adversarial fault matrix.
type StoreScenario struct {
	// Name identifies the row.
	Name string
	// Driver describes the injected fault and the actor driving it.
	Driver string
	// Detection is the bound on when the misbehavior (or its absence)
	// is established.
	Detection string
	// Pass reports whether the row behaved as specified.
	Pass bool
	// Detail carries the measured outcome (or the failure).
	Detail string
}

// StorePerfRow is one point of the group-commit sweep.
type StorePerfRow struct {
	// Appenders is the concurrent appender count.
	Appenders int
	// AppendsPerSec is the durable append throughput at that concurrency.
	AppendsPerSec float64
	// BaselineAppendsPerSec is the sequential one-fsync-per-record rate
	// measured on the same backend; Speedup is the ratio.
	BaselineAppendsPerSec float64
	Speedup               float64
	// CommitP50 and CommitP99 are group-commit latency quantiles (batch
	// write + fsync) from the store's own histogram.
	CommitP50, CommitP99 time.Duration
}

// StoreRecoveryRow is one point of the recovery-time curve.
type StoreRecoveryRow struct {
	// Records is the committed WAL record count replayed at open.
	Records int
	// Elapsed is the open-time recovery wall time.
	Elapsed time.Duration
}

// StoreResult reports a full E18 run.
type StoreResult struct {
	Scenarios       []StoreScenario
	ScenariosPassed int
	Perf            []StorePerfRow
	Recovery        []StoreRecoveryRow
	Elapsed         time.Duration
}

// RunStore executes one durability run, bounded by ctx (cancellation
// observed between phases).
func RunStore(ctx context.Context, cfg StoreConfig) (*StoreResult, error) {
	cfg.fill()
	start := time.Now()
	res := &StoreResult{}
	for _, run := range []func(context.Context, StoreConfig, *StoreResult) error{
		runStoreCrashRestart,
		runStoreStaleWindow,
		runStoreReplay,
		runStorePerf,
		runStoreRecovery,
	} {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if err := run(ctx, cfg, res); err != nil {
			return nil, err
		}
	}
	for _, s := range res.Scenarios {
		if s.Pass {
			res.ScenariosPassed++
		}
	}
	res.Elapsed = time.Since(start)
	return res, nil
}

// storeWindowRec mirrors the participant's write-ahead window record:
// u64 epoch | u64 window, logged before any seal from that window is
// published.
func storeWindowRec(epoch, window uint64) []byte {
	buf := binary.BigEndian.AppendUint64(nil, epoch)
	return binary.BigEndian.AppendUint64(buf, window)
}

// storeProverWorld is the shared fixture for the equivocation rows: a
// sealing prover with a durable window log, and a peer auditor that has
// observed every published statement.
type storeProverWorld struct {
	reg      *sigs.Registry
	signer   sigs.Signer
	provider sigs.Signer
	mem      *store.Mem
	fault    *store.Fault
	st       *store.Store
	eng      *engine.ProverEngine
	peer     *auditnet.Auditor
	pfx      route.Route
	round    int
}

const (
	storeProver   = aspath.ASN(64500)
	storeProvider = aspath.ASN(64601)
	storePeer     = aspath.ASN(64701)
)

func newStoreProverWorld() (*storeProverWorld, error) {
	w := &storeProverWorld{reg: sigs.NewRegistry(), mem: store.NewMem(), fault: store.NewFault()}
	var err error
	if w.signer, err = sigs.GenerateEd25519(); err != nil {
		return nil, err
	}
	if w.provider, err = sigs.GenerateEd25519(); err != nil {
		return nil, err
	}
	w.reg.Register(storeProver, w.signer.Public())
	w.reg.Register(storeProvider, w.provider.Public())
	if w.st, _, err = store.Open(w.fault.Bind(w.mem), store.Options{}); err != nil {
		return nil, err
	}
	if w.peer, err = auditnet.New(auditnet.Config{ASN: storePeer, Registry: w.reg}); err != nil {
		return nil, err
	}
	w.pfx = route.Route{
		Prefix:  trace.Universe(1)[0],
		NextHop: netip.AddrFrom4([4]byte{192, 0, 2, 1}),
	}
	if w.eng, err = w.newEngine(); err != nil {
		return nil, err
	}
	w.eng.BeginEpoch(1)
	return w, nil
}

func (w *storeProverWorld) newEngine() (*engine.ProverEngine, error) {
	return engine.New(engine.Config{
		ASN: storeProver, Signer: w.signer, Registry: w.reg, Shards: 2, MaxLen: 8,
	})
}

// announce feeds the engine one fresh provider route for the fixture
// prefix via the streaming mutation path, dirtying it for the next seal.
func (w *storeProverWorld) announce(eng *engine.ProverEngine) error {
	w.round++
	r := w.pfx
	r.Path = aspath.New(storeProvider, aspath.ASN(65000+w.round))
	a, err := core.NewAnnouncement(w.provider, storeProvider, storeProver, 1, r)
	if err != nil {
		return err
	}
	return eng.ReplacePrefix(w.pfx.Prefix, []core.Announcement{a}, obs.TraceContext{})
}

// sealAndPublish seals the dirty state, write-ahead logs the window,
// and publishes every seal statement to the peer auditor. It returns
// the first conflict the peer detects (nil for an honest window).
func (w *storeProverWorld) sealAndPublish(eng *engine.ProverEngine) (*gossip.Conflict, error) {
	var (
		seals []*engine.Seal
		err   error
	)
	if len(eng.Seals()) == 0 {
		// First seal of this engine instance: window 0 on a cold start,
		// or the recovered window + 1 after ResumeEpoch.
		seals, err = eng.SealEpoch()
	} else {
		seals, _, err = eng.SealDirty()
	}
	if err != nil {
		return nil, err
	}
	// Write-ahead: the window must be durable before publication; on
	// failure the seals never leave the process.
	if err := w.st.Append(0x01, storeWindowRec(eng.Epoch(), eng.Window())); err != nil {
		return nil, fmt.Errorf("window log: %w", err)
	}
	for _, s := range seals {
		if _, conflict, err := w.peer.AddRecord(auditnet.Record{Epoch: s.Epoch, S: s.Statement()}); err != nil {
			return nil, err
		} else if conflict != nil {
			return conflict, nil
		}
	}
	return nil, nil
}

// restart models the process restart: rebind the fault injector (the
// crashed flag clears, armed faults persist), reopen the store, recover
// the window position, and resume a fresh engine past it.
func (w *storeProverWorld) restart() (*engine.ProverEngine, uint64, error) {
	st, rec, err := store.Open(w.fault.Bind(w.mem), store.Options{})
	if err != nil {
		return nil, 0, err
	}
	w.st = st
	var epoch, window uint64
	for _, r := range rec.Records {
		if r.Type == 0x01 && len(r.Data) == 16 {
			epoch = binary.BigEndian.Uint64(r.Data)
			window = binary.BigEndian.Uint64(r.Data[8:])
		}
	}
	eng, err := w.newEngine()
	if err != nil {
		return nil, 0, err
	}
	if epoch != 0 {
		eng.ResumeEpoch(epoch, window)
	} else {
		eng.BeginEpoch(1)
	}
	return eng, window, nil
}

// runStoreCrashRestart drives the crash-restart-mid-window row: the
// write-ahead window record tears mid-append, publication is
// suppressed, and the restarted prover must resume past every published
// window — the peer auditor, which holds every pre-crash statement,
// must see no equivocation. A cold-start control (same table, no
// recovered window) shows what the store prevents: its re-seal reuses a
// published window number and is convicted on the first statement.
func runStoreCrashRestart(ctx context.Context, cfg StoreConfig, res *StoreResult) error {
	w, err := newStoreProverWorld()
	if err != nil {
		return err
	}
	row := StoreScenario{
		Name:      "crash-restart-mid-window",
		Driver:    "kill at a byte offset inside the write-ahead window append; restart on the recovered store",
		Detection: "zero false equivocations at the peer auditor; first post-restart window = recovered+1",
	}
	fail := func(format string, args ...any) error {
		row.Detail = fmt.Sprintf(format, args...)
		res.Scenarios = append(res.Scenarios, row)
		return nil
	}
	for i := 0; i < cfg.Windows; i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := w.announce(w.eng); err != nil {
			return err
		}
		if conflict, err := w.sealAndPublish(w.eng); err != nil {
			return err
		} else if conflict != nil {
			return fail("pre-crash window %d convicted: %s", w.eng.Window(), conflict.Topic)
		}
	}
	published := w.eng.Window()

	// The kill: the next window's write-ahead append tears partway.
	w.fault.CrashAfterBytes(8)
	if err := w.announce(w.eng); err != nil {
		return err
	}
	if _, _, err := w.eng.SealDirty(); err != nil {
		return err
	}
	err = w.st.Append(0x01, storeWindowRec(w.eng.Epoch(), w.eng.Window()))
	if err == nil || !w.fault.Crashed() {
		return fail("armed crash did not trip on the window append (err=%v)", err)
	}
	// Publication suppressed: the torn window's seals never reach the peer.

	eng2, recovered, err := w.restart()
	if err != nil {
		return err
	}
	if recovered != published {
		return fail("recovered window %d, want last published %d", recovered, published)
	}
	if err := w.announce(eng2); err != nil {
		return err
	}
	conflict, err := w.sealAndPublish(eng2)
	if err != nil {
		return err
	}
	if conflict != nil {
		return fail("restart convicted as equivocation on %s", conflict.Topic)
	}
	if got := eng2.Window(); got != published+1 {
		return fail("post-restart window %d, want %d", got, published+1)
	}

	// Cold-start control: an engine that recovers nothing re-seals from
	// window zero — reusing published window numbers — and the peer
	// convicts it immediately.
	cold, err := w.newEngine()
	if err != nil {
		return err
	}
	cold.BeginEpoch(1)
	if err := w.announce(cold); err != nil {
		return err
	}
	seals, err := cold.SealEpoch()
	if err != nil {
		return err
	}
	var coldConflict *gossip.Conflict
	for _, s := range seals {
		if _, c, err := w.peer.AddRecord(auditnet.Record{Epoch: s.Epoch, S: s.Statement()}); err != nil {
			return err
		} else if c != nil {
			coldConflict = c
			break
		}
	}
	if coldConflict == nil {
		return fail("cold-start control reused window %d without detection", cold.Window())
	}
	row.Pass = true
	row.Detail = fmt.Sprintf("recovered window %d, resumed at %d; cold-start control convicted on %s",
		recovered, published+1, coldConflict.Topic)
	res.Scenarios = append(res.Scenarios, row)
	return nil
}

// runStoreStaleWindow drives the stale-window-reuse row: a prover that
// comes back from a restart and deliberately republishes an old
// window's topic with a fresh payload (what ignoring the recovered
// window position produces) is convicted on that single statement.
func runStoreStaleWindow(ctx context.Context, cfg StoreConfig, res *StoreResult) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	w, err := newStoreProverWorld()
	if err != nil {
		return err
	}
	row := StoreScenario{
		Name:      "stale-window-reuse",
		Driver:    "after restart, forge a seal statement on an already-published window topic",
		Detection: "peer auditor convicts on the first reused-window statement",
	}
	for i := 0; i < cfg.Windows; i++ {
		if err := w.announce(w.eng); err != nil {
			return err
		}
		if conflict, err := w.sealAndPublish(w.eng); err != nil {
			return err
		} else if conflict != nil {
			row.Detail = fmt.Sprintf("honest window convicted: %s", conflict.Topic)
			res.Scenarios = append(res.Scenarios, row)
			return nil
		}
	}
	// The reuse: same topic as a published seal, different payload,
	// genuinely signed by the prover — exactly what re-sealing at a
	// stale window number emits.
	genuine := w.eng.Seals()[0].Statement()
	forgedPayload := append(append([]byte(nil), genuine.Payload...), 0xFF)
	sig, err := w.signer.Sign(forgedPayload)
	if err != nil {
		return err
	}
	forged := genuine
	forged.Payload, forged.Sig = forgedPayload, sig
	_, conflict, err := w.peer.AddRecord(auditnet.Record{Epoch: 1, S: forged})
	if err != nil {
		return err
	}
	switch {
	case conflict == nil:
		row.Detail = "stale-window statement went undetected"
	case !w.peer.Convicted(storeProver):
		row.Detail = "conflict detected but prover not convicted"
	default:
		row.Pass = true
		row.Detail = fmt.Sprintf("convicted on %s", conflict.Topic)
	}
	res.Scenarios = append(res.Scenarios, row)
	return nil
}

// runStoreReplay drives the replay-after-recovery row: a disclosure
// query granted before the crash is replayed verbatim against the
// restarted server, whose in-memory nonce cache died with the process —
// the recovered nonce high-water mark must deny it while fresh queries
// still pass.
func runStoreReplay(ctx context.Context, cfg StoreConfig, res *StoreResult) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	row := StoreScenario{
		Name:      "replay-after-recovery",
		Driver:    "replay a pre-crash disclosure query verbatim against the restarted server",
		Detection: "denied by the recovered nonce floor on the first attempt; fresh queries unaffected",
	}
	reg := sigs.NewRegistry()
	signers := make(map[aspath.ASN]sigs.Signer)
	for _, asn := range []aspath.ASN{storeProver, storeProvider, storePeer} {
		s, err := sigs.GenerateEd25519()
		if err != nil {
			return err
		}
		signers[asn] = s
		reg.Register(asn, s.Public())
	}
	eng, err := engine.New(engine.Config{
		ASN: storeProver, Signer: signers[storeProver], Registry: reg, Shards: 2, MaxLen: 8,
	})
	if err != nil {
		return err
	}
	eng.BeginEpoch(1)
	pfx := trace.Universe(1)[0]
	a, err := core.NewAnnouncement(signers[storeProvider], storeProvider, storeProver, 1, route.Route{
		Prefix: pfx, Path: aspath.New(storeProvider), NextHop: netip.AddrFrom4([4]byte{192, 0, 2, 1}),
	})
	if err != nil {
		return err
	}
	if _, err := eng.AcceptAnnouncement(a, obs.TraceContext{}); err != nil {
		return err
	}
	if _, err := eng.SealEpoch(); err != nil {
		return err
	}
	kb, err := signers[storeProver].Public().Marshal()
	if err != nil {
		return err
	}

	mem := store.NewMem()
	fault := store.NewFault()
	st, _, err := store.Open(fault.Bind(mem), store.Options{})
	if err != nil {
		return err
	}
	logNonce := func(stamp uint64) {
		st.AppendAsync(0x03, binary.BigEndian.AppendUint64(nil, stamp))
	}
	serve := func(cfg discplane.Config) (discplane.FrameConn, func(), error) {
		srv, err := discplane.NewServer(cfg)
		if err != nil {
			return nil, nil, err
		}
		client, server := netx.Pipe()
		go func() {
			defer server.Close()
			for srv.Respond(server) == nil {
			}
		}()
		return client, func() { client.Close() }, nil
	}

	client, stop, err := serve(discplane.Config{
		ASN: storeProver, Engine: eng, Registry: reg,
		IsPromisee: func(asn aspath.ASN) bool { return asn == storePeer },
		Key:        kb, OnNonce: logNonce,
	})
	if err != nil {
		return err
	}
	captured := &discplane.Query{Requester: storePeer, Prover: storeProver, Role: discplane.RolePromisee, Epoch: 1, Prefix: pfx}
	if err := captured.Sign(signers[storePeer]); err != nil {
		return err
	}
	if _, err := discplane.Fetch(client, captured); err != nil {
		return fmt.Errorf("pre-crash query denied: %w", err)
	}
	if err := st.Sync(); err != nil {
		return err
	}
	stop()

	// The crash kills the process (and with it the server's in-memory
	// nonce cache); restart recovers the high-water mark from the WAL.
	fault.CrashAfterBytes(0)
	st2, rec, err := store.Open(fault.Bind(mem), store.Options{})
	if err != nil {
		return err
	}
	var hwm uint64
	for _, r := range rec.Records {
		if r.Type == 0x03 && len(r.Data) == 8 {
			if s := binary.BigEndian.Uint64(r.Data); s > hwm {
				hwm = s
			}
		}
	}
	if hwm == 0 {
		row.Detail = "no nonce high-water mark recovered"
		res.Scenarios = append(res.Scenarios, row)
		return nil
	}
	client2, stop2, err := serve(discplane.Config{
		ASN: storeProver, Engine: eng, Registry: reg,
		IsPromisee: func(asn aspath.ASN) bool { return asn == storePeer },
		Key:        kb, NonceFloor: hwm,
		OnNonce: func(stamp uint64) { st2.AppendAsync(0x03, binary.BigEndian.AppendUint64(nil, stamp)) },
	})
	if err != nil {
		return err
	}
	defer stop2()
	_, replayErr := discplane.Fetch(client2, captured)
	fresh := &discplane.Query{Requester: storePeer, Prover: storeProver, Role: discplane.RolePromisee, Epoch: 1, Prefix: pfx}
	if err := fresh.Sign(signers[storePeer]); err != nil {
		return err
	}
	_, freshErr := discplane.Fetch(client2, fresh)
	switch {
	case !errors.Is(replayErr, discplane.ErrAccessDenied):
		row.Detail = fmt.Sprintf("replayed query not denied (err=%v)", replayErr)
	case freshErr != nil:
		row.Detail = fmt.Sprintf("fresh post-restart query denied: %v", freshErr)
	default:
		row.Pass = true
		row.Detail = fmt.Sprintf("replay denied at nonce floor %d, fresh query granted", hwm)
	}
	res.Scenarios = append(res.Scenarios, row)
	return nil
}

// storeBackendAt returns a backend for a perf phase: a fresh
// subdirectory of cfg.Dir, or an in-memory backend when no directory
// was given.
func storeBackendAt(cfg StoreConfig, name string) (store.Backend, error) {
	if cfg.Dir == "" {
		return store.NewMem(), nil
	}
	return store.NewFileBackend(cfg.Dir + "/" + name)
}

// runStorePerf measures the group-commit sweep: a sequential
// one-fsync-per-record baseline, then the same record count pushed by
// concurrent appenders riding shared commits.
func runStorePerf(ctx context.Context, cfg StoreConfig, res *StoreResult) error {
	payload := make([]byte, cfg.RecordBytes)
	baselineN := cfg.AppendsPerAppender
	b, err := storeBackendAt(cfg, "baseline")
	if err != nil {
		return err
	}
	log, _, err := store.OpenLog(b, store.Options{})
	if err != nil {
		return err
	}
	t0 := time.Now()
	for i := 0; i < baselineN; i++ {
		if err := log.Append(0x10, payload); err != nil {
			return err
		}
	}
	baseline := float64(baselineN) / time.Since(t0).Seconds()
	if err := log.Close(); err != nil {
		return err
	}

	for _, k := range cfg.Appenders {
		if err := ctx.Err(); err != nil {
			return err
		}
		b, err := storeBackendAt(cfg, fmt.Sprintf("group-%d", k))
		if err != nil {
			return err
		}
		obsReg := obs.NewRegistry()
		log, _, err := store.OpenLog(b, store.Options{Metrics: store.NewMetrics(obsReg)})
		if err != nil {
			return err
		}
		var wg sync.WaitGroup
		errs := make([]error, k)
		t0 := time.Now()
		for g := 0; g < k; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < cfg.AppendsPerAppender; i++ {
					if err := log.Append(0x10, payload); err != nil {
						errs[g] = err
						return
					}
				}
			}(g)
		}
		wg.Wait()
		elapsed := time.Since(t0)
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		if err := log.Close(); err != nil {
			return err
		}
		q := func(p float64) time.Duration {
			v, ok := obsReg.Quantile("pvr_store_commit_seconds", p)
			if !ok {
				return 0
			}
			return time.Duration(v * float64(time.Second))
		}
		rate := float64(k*cfg.AppendsPerAppender) / elapsed.Seconds()
		res.Perf = append(res.Perf, StorePerfRow{
			Appenders:             k,
			AppendsPerSec:         rate,
			BaselineAppendsPerSec: baseline,
			Speedup:               rate / baseline,
			CommitP50:             q(0.50),
			CommitP99:             q(0.99),
		})
	}
	return nil
}

// runStoreRecovery measures open-time recovery against WAL size.
func runStoreRecovery(ctx context.Context, cfg StoreConfig, res *StoreResult) error {
	payload := make([]byte, cfg.RecordBytes)
	for _, n := range cfg.RecoverySizes {
		if err := ctx.Err(); err != nil {
			return err
		}
		b, err := storeBackendAt(cfg, fmt.Sprintf("recovery-%d", n))
		if err != nil {
			return err
		}
		log, _, err := store.OpenLog(b, store.Options{})
		if err != nil {
			return err
		}
		for i := 0; i < n; i++ {
			log.AppendAsync(0x10, payload)
		}
		if err := log.Close(); err != nil {
			return err
		}
		log2, rec, err := store.OpenLog(b, store.Options{})
		if err != nil {
			return err
		}
		if got := len(rec.Records); got != n {
			return fmt.Errorf("netsim: recovery of %d records replayed %d", n, got)
		}
		if err := log2.Close(); err != nil {
			return err
		}
		res.Recovery = append(res.Recovery, StoreRecoveryRow{Records: n, Elapsed: rec.Elapsed})
	}
	return nil
}
