// Package pvr is the public API of this repository: an implementation of
// private and verifiable routing (PVR) from "Having Your Cake and Eating
// It Too: Routing Security with Privacy Protections" (Gurney, Haeberlen,
// Zhou, Sherr, Loo — HotNets-X, 2011).
//
// PVR lets an autonomous system prove to its neighbors that it kept its
// routing promises ("I exported the shortest route you gave me") without
// revealing anything the routing protocol does not already reveal. The
// package exposes one object, the Participant: one AS running all of PVR
// at once —
//
//   - the sharded prover Engine over its table, with one Merkle-batched
//     commitment signature per shard (§3.3, §3.8 batching), and the
//     streaming update plane that re-seals only dirty shards each
//     commitment window under live churn (Submit, Flush, WithWindow);
//   - BGP sessions that carry sealed commitments to neighbors, which
//     verify every learned route against them (WithListen, WithPeers);
//   - the audit network: seal statements gossiped by anti-entropy,
//     equivocators convicted on transferable evidence kept in a ledger
//     (§2.3; Reconcile, WithGossipListen, WithLedger);
//   - the disclosure query plane: on-demand, α-gated views of any sealed
//     (prefix, epoch) — providers, the promisee, and third parties each
//     granted exactly their entitlement, denials typed as ErrAccessDenied
//     (QueryDisclosure, WithDiscloseListen), with ring-signed anonymous
//     provider queries and zero-knowledge auditor proofs
//     (WithZKDisclosure). A participant's queries to one peer ride
//     disclosure sessions: a few kept connections, each authenticated by
//     the first signed query on it (README, "Disclosure sessions");
//   - a durable store under all of it (WithStore).
//
// The lifecycle is Open → Run → Close. Open builds the stack, seals the
// originated prefixes into epoch 1, binds the listeners and dials the
// peers; Run drives the periodic work until its context ends, then closes
// the participant. A minimal session, with A proving its shortest-route
// promise for one prefix to its promisee B:
//
//	mem := pvr.NewMemTransport()
//	reg := pvr.NewRegistry() // the out-of-band PKI
//	pfx := pvr.MustParsePrefix("203.0.113.0/24")
//
//	a, _ := pvr.Open(ctx, pvr.WithASN(64500), pvr.WithTransport(mem),
//		pvr.WithRegistry(reg), pvr.WithOriginate(pfx),
//		pvr.WithDiscloseListen("a"), pvr.WithPromisees(64501))
//	go a.Run(ctx) // gossip rounds, metric samples; closes a when ctx ends
//
//	b, _ := pvr.Open(ctx, pvr.WithASN(64501), pvr.WithTransport(mem),
//		pvr.WithRegistry(reg))
//	defer b.Close()
//	d, err := b.RequestDisclosure(ctx, "a", pfx, 1) // fetched and verified
//
// The paper's single-mechanism walk-throughs — the §3.3 minimum operator,
// route-flow graphs (§3.5–3.7), Byzantine fault injection, the audit
// network — are Example functions beside the internal packages they
// exercise (go test -run Example -v ./internal/...); EXPERIMENTS.md
// reproduces the paper's quantitative claims.
package pvr

import (
	"pvr/internal/aspath"
	"pvr/internal/auditnet"
	"pvr/internal/core"
	"pvr/internal/engine"
	"pvr/internal/gossip"
	"pvr/internal/prefix"
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

// Registry maps ASNs to verification keys: the out-of-band PKI the paper
// assumes. Participants opened WithRegistry on one shared Registry verify
// each other's signatures without trust-on-first-use.
type Registry = sigs.Registry

// NewRegistry creates an empty key registry.
var NewRegistry = sigs.NewRegistry

// Announcement is a provider's signed input route (Participant.Announce).
type Announcement = core.Announcement

// Statement is a signed gossip utterance (for PVR: a shard seal) by its
// origin on a topic.
type Statement = gossip.Statement

// Audit-network types: what Participant.Auditor and Participant.Reconcile
// return.
type (
	// Auditor is one node of the audit network: an epoch-indexed statement
	// store reconciled with peers by anti-entropy, and the convicted-AS set
	// confirmed equivocation evidence builds.
	Auditor = auditnet.Auditor
	// AuditRecord is a signed statement filed under its epoch, the unit
	// the network disseminates.
	AuditRecord = auditnet.Record
	// AuditStats reports what one anti-entropy exchange moved.
	AuditStats = auditnet.Stats
)

// Engine types: the sharded multi-prefix prover behind Participant.Engine
// and the sealed material a Disclosure carries.
type (
	// Engine is the sharded multi-prefix prover.
	Engine = engine.ProverEngine
	// SealedCommitment is a per-prefix commitment authenticated by a shard
	// seal plus inclusion proof instead of its own signature.
	SealedCommitment = engine.SealedCommitment
	// EngineProviderView is the engine's §3.3 disclosure to a provider.
	EngineProviderView = engine.ProviderView
	// EnginePromiseeView is the engine's §3.3 disclosure to the promisee.
	EnginePromiseeView = engine.PromiseeView
)

// Update-plane types: the feed items Participant.Submit consumes and the
// window reports Flush and Stats return.
type (
	// UpdateEvent is one feed item (announce or withdraw).
	UpdateEvent = updplane.Event
	// UpdateWindow reports one sealed commitment window.
	UpdateWindow = updplane.WindowResult
	// UpdatePlaneStats is a snapshot of plane counters and seal-latency
	// quantiles.
	UpdatePlaneStats = updplane.Stats
)

// AnnounceEvent and WithdrawEvent build Participant.Submit's feed items.
var (
	AnnounceEvent = updplane.AnnounceEvent
	WithdrawEvent = updplane.WithdrawEvent
)
