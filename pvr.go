// Package pvr is the public API of this repository: an implementation of
// private and verifiable routing (PVR) from "Having Your Cake and Eating
// It Too: Routing Security with Privacy Protections" (Gurney, Haeberlen,
// Zhou, Sherr, Loo — HotNets-X, 2011).
//
// PVR lets an autonomous system prove to its neighbors that it kept its
// routing promises ("I exported the shortest route you gave me") without
// revealing anything the routing protocol does not already reveal. The
// package exposes:
//
//   - Network / Node: key management for the participating ASes.
//   - The §3.3 minimum-operator protocol (Prover, ProviderView,
//     PromiseeView and their verifiers) and the §3.2 existential protocol.
//   - Route-flow graphs (§2.1) with operators, access control α (§2.2),
//     promise model checking, and the generalized Merkle commitment with
//     selective disclosure (§3.5–3.7).
//   - Commitment gossip for equivocation detection, transferable evidence,
//     and a third-party Judge (§2.3).
//   - The sharded multi-prefix Engine with Merkle-batched shard seals and
//     the streaming UpdatePlane that re-seals only dirty shards under
//     live BGP churn (§3.8 batching).
//   - The disclosure query plane: on-demand, α-gated views of any sealed
//     (prefix, epoch) over the wire — providers, the promisee, and third
//     parties each granted exactly their entitlement, denials typed as
//     ErrAccessDenied (Participant.QueryDisclosure, WithDiscloseListen).
//     A participant's queries to one peer ride disclosure sessions: a few
//     kept connections, each authenticated by the first signed query on
//     it, with verification verdicts memoized across queries; anonymous
//     queries each dial a connection of their own (README, "Disclosure
//     sessions").
//   - Simulation drivers (RunFig1, RunConvergence, RunEngineEpoch,
//     RunGossip, RunChurn) used by the examples and the experiment
//     harness.
//
// A minimal session, with A proving its shortest-route promise:
//
//	net := pvr.NewNetwork()
//	a, _ := net.AddNode(64500)     // the prover A
//	n1, _ := net.AddNode(64501)    // provider N1
//	b, _ := net.AddNode(64502)     // promisee B
//
//	prover, _ := a.NewProver(32)
//	prover.BeginEpoch(1, pfx)
//	ann, _ := n1.Announce(a.ASN(), 1, route)
//	receipt, _ := prover.AcceptAnnouncement(ann)
//	_, _ = prover.CommitMin()
//	view, _ := prover.DiscloseToPromisee(b.ASN())
//	err := pvr.VerifyPromiseeView(net.Registry(), view)   // b's check
//	_ = receipt
//
// See examples/ for complete programs and EXPERIMENTS.md for the
// reproduction of the paper's quantitative claims.
package pvr

import (
	"sort"
	"sync"

	"pvr/internal/aspath"
	"pvr/internal/auditnet"
	"pvr/internal/core"
	"pvr/internal/engine"
	"pvr/internal/evidence"
	"pvr/internal/gossip"
	"pvr/internal/netsim"
	"pvr/internal/prefix"
	"pvr/internal/rfg"
	"pvr/internal/route"
	"pvr/internal/sigs"
	"pvr/internal/updplane"
)

// ASN is an autonomous system number.
type ASN = aspath.ASN

// Prefix is an IP prefix; see ParsePrefix.
type Prefix = prefix.Prefix

// Route is a BGP route with attributes.
type Route = route.Route

// Path is a BGP AS_PATH.
type Path = aspath.Path

// NewPath builds an AS_SEQUENCE path, leftmost (most recent) first.
func NewPath(asns ...ASN) Path { return aspath.New(asns...) }

// ParsePrefix parses CIDR notation ("203.0.113.0/24").
func ParsePrefix(s string) (Prefix, error) { return prefix.Parse(s) }

// MustParsePrefix is ParsePrefix that panics on error, for literals.
func MustParsePrefix(s string) Prefix { return prefix.MustParse(s) }

// Core protocol types (§3.2–§3.3). A Prover is the promise-making AS; the
// views are what it disclosed to each class of neighbor.
type (
	// Prover is network A: it gathers signed inputs, commits, exports,
	// and discloses.
	Prover = core.Prover
	// Announcement is a provider's signed input route.
	Announcement = core.Announcement
	// Receipt is the prover's signed acknowledgement of an announcement.
	Receipt = core.Receipt
	// MinCommitment is the signed §3.3 bit-vector commitment.
	MinCommitment = core.MinCommitment
	// ProviderView is the disclosure a provider N_i verifies.
	ProviderView = core.ProviderView
	// PromiseeView is the disclosure the promisee B verifies.
	PromiseeView = core.PromiseeView
	// Violation is a detected promise violation.
	Violation = core.Violation
	// GraphProver commits to and discloses a route-flow graph (§3.5–3.7).
	GraphProver = core.GraphProver
	// GraphCommitment is the signed Merkle root over a route-flow graph.
	GraphCommitment = core.GraphCommitment
	// VertexDisclosure reveals one graph vertex under α.
	VertexDisclosure = core.VertexDisclosure
	// ExportStatement is A's signed statement of what it exported (§3.3).
	ExportStatement = core.ExportStatement
)

// Route-flow graph types (§2.1–2.2).
type (
	// Graph is a route-flow graph of operator and variable vertices.
	Graph = rfg.Graph
	// Access is the α visibility policy.
	Access = rfg.Access
	// Promise is a verifiable contract over graph inputs and outputs.
	Promise = rfg.Promise
)

// Evidence and judging (§2.3).
type (
	// Evidence is a transferable accusation with supporting material.
	Evidence = evidence.Evidence
	// Verdict is the judge's decision.
	Verdict = evidence.Verdict
	// GossipPool detects commitment equivocation between neighbors.
	GossipPool = gossip.Pool
	// Statement is a signed gossip utterance (for PVR: a seal or
	// commitment) by its origin on a topic.
	Statement = gossip.Statement
	// Conflict is a detected equivocation: two validly signed, different
	// payloads from the same origin on the same topic.
	Conflict = gossip.Conflict
)

// Audit network types (internal/auditnet): the deployable accountability
// layer. An Auditor keeps an epoch-indexed statement store with
// per-(origin, epoch) Merkle digests, reconciles it with peers via
// anti-entropy exchanges (digests first, only missing statements on the
// wire), persists confirmed equivocation evidence to an append-only
// Ledger, and maintains the convicted-AS set that Pipeline.SetBanlist
// consults.
type (
	// Auditor is one node of the audit network.
	Auditor = auditnet.Auditor
	// AuditorConfig parameterizes NewAuditor.
	AuditorConfig = auditnet.Config
	// AuditRecord is a signed statement filed under its epoch, the unit
	// the network disseminates.
	AuditRecord = auditnet.Record
	// AuditStats reports what one anti-entropy exchange moved.
	AuditStats = auditnet.Stats
	// Ledger is the persistent append-only evidence log.
	Ledger = auditnet.Ledger
	// LedgerRecord is one replayed evidence entry.
	LedgerRecord = auditnet.LedgerRecord
	// Conviction is one convicted-AS entry with the judge's explanation.
	Conviction = auditnet.Conviction
)

// NewAuditor builds an audit-network node; OpenLedger opens (creating if
// absent) an evidence ledger and returns its replayed records, which
// AuditorConfig.Replay feeds through verification and the judge.
var (
	NewAuditor = auditnet.New
	OpenLedger = auditnet.OpenLedger
)

// Registry maps ASNs to verification keys.
type Registry = sigs.Registry

// NewRegistry creates an empty key registry (a Network and a Participant
// each manage one; this is for wiring them by hand).
var NewRegistry = sigs.NewRegistry

// Verifier is the read side of a Registry; *Registry implements it.
type Verifier = sigs.Verifier

// Engine types: the sharded multi-prefix prover (internal/engine). Where a
// Prover handles one (prefix, epoch), an Engine handles an AS's whole
// table: hash-sharded per-prefix state, concurrent announcement ingest,
// one Merkle-batched commitment signature per shard at epoch seal, and a
// worker-pool verification pipeline on the receiving side.
type (
	// Engine is the sharded multi-prefix prover.
	Engine = engine.ProverEngine
	// EngineConfig parameterizes NewEngine; zero values are defaulted.
	EngineConfig = engine.Config
	// EngineSeal is one shard's signed Merkle-batched epoch commitment.
	EngineSeal = engine.Seal
	// SealedCommitment is a per-prefix commitment authenticated by a shard
	// seal plus inclusion proof instead of its own signature.
	SealedCommitment = engine.SealedCommitment
	// EngineProviderView is the engine's §3.3 disclosure to a provider.
	EngineProviderView = engine.ProviderView
	// EnginePromiseeView is the engine's §3.3 disclosure to the promisee.
	EnginePromiseeView = engine.PromiseeView
	// Pipeline is the channel-fed worker pool for parallel disclosure
	// verification with a cached key registry.
	Pipeline = engine.Pipeline
	// VerifyResult is one pipeline verification outcome.
	VerifyResult = engine.Result
)

// NewEngine builds a sharded multi-prefix prover engine. Config.ASN,
// Signer, and Registry are required; NewPipeline builds the matching
// verification pool (workers must be positive).
var (
	NewEngine   = engine.New
	NewPipeline = engine.NewPipeline
	// VerifyEngineProviderView is N_i's check of an engine disclosure.
	VerifyEngineProviderView = engine.VerifyProviderView
	// VerifyEnginePromiseeView is B's check of an engine disclosure.
	VerifyEnginePromiseeView = engine.VerifyPromiseeView
)

// Update-plane types (internal/updplane): the streaming layer between a
// live BGP feed and the engine. An UpdatePlane consumes announce/withdraw
// events through a bounded backpressured queue, applies them through the
// BGP RIB decision process, and re-seals only the dirty shards each
// commitment window (engine SealDirty) — the §3.8 batching argument
// applied to continuous churn instead of static table re-seals.
type (
	// UpdatePlane is the streaming update plane.
	UpdatePlane = updplane.Plane
	// UpdatePlaneConfig parameterizes NewUpdatePlane; Engine is required.
	UpdatePlaneConfig = updplane.Config
	// UpdateEvent is one feed item (announce or withdraw).
	UpdateEvent = updplane.Event
	// UpdateWindow reports one sealed commitment window.
	UpdateWindow = updplane.WindowResult
	// UpdatePlaneStats is a snapshot of plane counters and seal-latency
	// quantiles.
	UpdatePlaneStats = updplane.Stats
)

// NewUpdatePlane starts a streaming update plane over an Engine;
// AnnounceEvent and WithdrawEvent build its feed items. The backpressure
// signal from UpdatePlane.TrySubmit matches ErrQueueFull (deprecated) and,
// through the Participant surface, ErrBackpressure.
var (
	NewUpdatePlane = updplane.New
	AnnounceEvent  = updplane.AnnounceEvent
	WithdrawEvent  = updplane.WithdrawEvent
)

// Re-exported verification functions: these are what each neighbor runs.
var (
	// VerifyProviderView is N_i's §3.3 check.
	VerifyProviderView = core.VerifyProviderView
	// VerifyPromiseeView is B's §3.3 check.
	VerifyPromiseeView = core.VerifyPromiseeView
	// VerifyVertexDisclosure validates a graph disclosure against a root.
	VerifyVertexDisclosure = core.VerifyVertexDisclosure
	// Navigate walks a disclosed route-flow graph under α.
	Navigate = core.Navigate
	// IsViolation extracts a promise violation from a verification error.
	IsViolation = core.IsViolation
	// Judge renders a third-party verdict on evidence.
	Judge = evidence.Judge
)

// Judge verdicts.
const (
	Guilty   = evidence.Guilty
	Unproven = evidence.Unproven
)

// Simulation drivers for experiments and examples.
type (
	// Fig1Config parameterizes a run of the paper's Fig. 1 scenario.
	Fig1Config = netsim.Fig1Config
	// Fig1Result is what the neighbors observed.
	Fig1Result = netsim.Fig1Result
	// Fault selects an injected Byzantine behaviour.
	Fault = netsim.Fault
)

// Faults for Fig1Config.
const (
	FaultNone        = netsim.FaultNone
	FaultSuppress    = netsim.FaultSuppress
	FaultWrongExport = netsim.FaultWrongExport
	FaultEquivocate  = netsim.FaultEquivocate
)

// RunFig1 executes one epoch of the Fig. 1 scenario with fault injection.
var RunFig1 = netsim.RunFig1

// Engine-scale simulation driver (experiment E10): a whole-table epoch
// through the sharded engine with pipelined verification.
type (
	// EngineRunConfig parameterizes RunEngineEpoch.
	EngineRunConfig = netsim.EngineRunConfig
	// EngineRunResult reports counts and the cost split.
	EngineRunResult = netsim.EngineRunResult
)

// RunEngineEpoch runs one multi-prefix epoch through a sharded engine.
var RunEngineEpoch = netsim.RunEngineEpoch

// Gossip-convergence simulation driver (experiment E11): an audit network
// of N nodes running anti-entropy rounds, with an injected cross-shard
// equivocation and per-epoch statement deltas.
type (
	// GossipConfig parameterizes RunGossip.
	GossipConfig = netsim.GossipConfig
	// GossipResult reports detection latency and reconciliation cost.
	GossipResult = netsim.GossipResult
)

// RunGossip executes one gossip-convergence run; RunGossipContext is the
// context-bounded variant (cancellation observed at round boundaries).
var (
	RunGossip        = netsim.RunGossip
	RunGossipContext = netsim.RunGossipContext
)

// Streaming-churn simulation driver (experiment E12): a table under live
// announce/withdraw churn driven through the update plane, with
// dirty-shard invariants checked, an optional full-reseal baseline, and
// equivocation-under-churn audit.
type (
	// ChurnConfig parameterizes RunChurn.
	ChurnConfig = netsim.ChurnConfig
	// ChurnResult reports per-window costs, invariants, and detection.
	ChurnResult = netsim.ChurnResult
)

// RunChurn executes one streaming-churn run; RunChurnContext is the
// context-bounded variant (cancellation observed at window boundaries).
var (
	RunChurn        = netsim.RunChurn
	RunChurnContext = netsim.RunChurnContext
)

// Disclosure-query simulation driver (experiment E13): one prover serving
// its sealed multi-prefix table over the DISCLOSE/VIEW/DENY query plane,
// with concurrent clients issuing a deterministic mix of entitled and
// unentitled queries — measuring query latency, throughput, and α-denial
// correctness at scale.
type (
	// QueryRunConfig parameterizes RunQuery.
	QueryRunConfig = netsim.QueryConfig
	// QueryRunResult reports throughput, latency quantiles, and the
	// α-correctness counters.
	QueryRunResult = netsim.QueryResult
)

// RunQuery executes one disclosure-query run; RunQueryContext is the
// context-bounded variant (cancellation observed between queries).
var (
	RunQuery        = netsim.RunQuery
	RunQueryContext = netsim.RunQueryContext
)

// Network is the set of participating ASes and their public keys: the
// out-of-band PKI the paper assumes. Safe for concurrent use; reads
// (Node, Members) take only the read side of the lock.
type Network struct {
	mu    sync.RWMutex
	reg   *sigs.Registry
	nodes map[ASN]*Node
}

// NewNetwork creates an empty network.
func NewNetwork() *Network {
	return &Network{reg: sigs.NewRegistry(), nodes: make(map[ASN]*Node)}
}

// Registry exposes the verification-key registry used by all Verify*
// functions.
func (n *Network) Registry() *Registry { return n.reg }

// AddNode creates a node with a fresh Ed25519 key and registers it.
func (n *Network) AddNode(asn ASN) (*Node, error) {
	return n.addNode(asn, func() (sigs.Signer, error) { return sigs.GenerateEd25519() })
}

// AddNodeRSA creates a node with an RSA key of the given size (the paper's
// §3.8 cost discussion assumes RSA-1024).
func (n *Network) AddNodeRSA(asn ASN, bits int) (*Node, error) {
	return n.addNode(asn, func() (sigs.Signer, error) { return sigs.GenerateRSA(bits) })
}

func (n *Network) addNode(asn ASN, gen func() (sigs.Signer, error)) (*Node, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, dup := n.nodes[asn]; dup {
		return nil, errConfigf("add-node", "node %s already exists", asn)
	}
	s, err := gen()
	if err != nil {
		// Key-generation failures (an invalid RSA size, a broken entropy
		// source) surface through the documented error taxonomy instead of
		// leaking raw internal sigs errors.
		return nil, errKind(KindConfig, "add-node", err)
	}
	node := &Node{asn: asn, signer: s, net: n}
	n.nodes[asn] = node
	n.reg.Register(asn, s.Public())
	return node, nil
}

// Node returns a previously added node.
func (n *Network) Node(asn ASN) (*Node, bool) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	node, ok := n.nodes[asn]
	return node, ok
}

// Members lists the network's ASNs in ascending order.
func (n *Network) Members() []ASN {
	n.mu.RLock()
	defer n.mu.RUnlock()
	out := make([]ASN, 0, len(n.nodes))
	for a := range n.nodes {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Node is one AS: an identity that can announce routes, make promises
// (prove), and verify neighbors' disclosures.
type Node struct {
	asn    ASN
	signer sigs.Signer
	net    *Network
}

// ASN returns the node's AS number.
func (nd *Node) ASN() ASN { return nd.asn }

// Announce signs an input route offered to a neighboring prover for an
// epoch (the route's first AS must be this node).
func (nd *Node) Announce(to ASN, epoch uint64, r Route) (Announcement, error) {
	return core.NewAnnouncement(nd.signer, nd.asn, to, epoch, r)
}

// NewProver creates a §3.3 prover for this node with bit-vector length
// maxLen (the maximum AS-path length, K in the paper).
func (nd *Node) NewProver(maxLen int) (*Prover, error) {
	return core.NewProver(nd.asn, nd.signer, nd.net.reg, maxLen)
}

// NewGraphProver creates a §3.5–3.7 prover over a route-flow graph and an
// access policy.
func (nd *Node) NewGraphProver(g *Graph, access *Access) *GraphProver {
	return core.NewGraphProver(nd.asn, nd.signer, g, access)
}

// SignExport signs an export statement for a route offered to the given
// promisee. Honest provers export through their Prover or Engine
// disclosures; this is for simulations that model Byzantine exports.
func (nd *Node) SignExport(to ASN, epoch uint64, r Route) (ExportStatement, error) {
	return core.NewExportStatement(nd.signer, nd.asn, to, epoch, r, false)
}

// NewGossipPool creates this node's equivocation-detection pool.
func (nd *Node) NewGossipPool() *GossipPool {
	return gossip.NewPool(nd.net.reg)
}

// NewEngine creates this node's sharded multi-prefix prover engine. The
// identity fields (ASN, Signer, Registry) are filled from the node; set
// MaxLen, Shards, and Workers in cfg or leave them zero for defaults.
func (nd *Node) NewEngine(cfg EngineConfig) (*Engine, error) {
	cfg.ASN = nd.asn
	cfg.Signer = nd.signer
	cfg.Registry = nd.net.reg
	return engine.New(cfg)
}
