package pvr

import (
	"time"

	"pvr/internal/sigs"
)

// Signer is a private signing key (Ed25519 or RSA); see GenerateEd25519.
type Signer = sigs.Signer

// GenerateEd25519 generates a fresh Ed25519 signing key, the default
// scheme for Participant identities.
var GenerateEd25519 = sigs.GenerateEd25519

// Option configures a Participant at Open time. Options are applied in
// order; invalid values surface as ErrConfig from Open.
type Option func(*participantConfig) error

// participantConfig is the resolved option set.
type participantConfig struct {
	asn       ASN
	signer    Signer
	registry  *Registry
	transport Transport

	listen    string
	peers     []string
	hold      uint16
	originate []Prefix

	maxLen  int
	shards  int
	workers int

	window   time.Duration
	queue    int
	maxBatch int
	churn    int

	gossipListen   string
	gossipPeers    []string
	gossipInterval time.Duration
	ledgerPath     string

	discloseListen string
	promisees      []ASN

	storeDir     string
	storeBackend StoreBackend
	storeFault   *StoreFault
	storeCfg     StoreConfig

	zkBind  bool
	ringKey *RingKey
	ringDir *RingDirectory

	logf func(format string, args ...any)
}

func defaultConfig() *participantConfig {
	return &participantConfig{
		hold:           9,
		maxLen:         32,
		window:         250 * time.Millisecond,
		queue:          1024,
		gossipInterval: 2 * time.Second,
		logf:           func(string, ...any) {},
	}
}

// WithASN sets the participant's AS number. Required.
func WithASN(asn ASN) Option {
	return func(c *participantConfig) error {
		if asn == 0 {
			return errConfigf("option", "ASN must be nonzero")
		}
		c.asn = asn
		return nil
	}
}

// WithSigner supplies the participant's signing key; by default Open
// generates a fresh Ed25519 key.
func WithSigner(s Signer) Option {
	return func(c *participantConfig) error {
		if s == nil {
			return errConfigf("option", "Signer must be non-nil")
		}
		c.signer = s
		return nil
	}
}

// WithRegistry shares a verification-key registry (see NewRegistry) with
// the participant instead of starting from an empty trust-on-first-use
// one. The participant registers its own key in it.
func WithRegistry(r *Registry) Option {
	return func(c *participantConfig) error {
		if r == nil {
			return errConfigf("option", "Registry must be non-nil")
		}
		c.registry = r
		return nil
	}
}

// WithTransport selects the byte transport for BGP sessions and audit
// gossip. Default: TCP().
func WithTransport(t Transport) Option {
	return func(c *participantConfig) error {
		if t == nil {
			return errConfigf("option", "Transport must be non-nil")
		}
		c.transport = t
		return nil
	}
}

// WithListen serves BGP sessions on addr: established peers receive every
// sealed route with its commitment chain attached, and re-advertisements
// as streaming windows re-seal.
func WithListen(addr string) Option {
	return func(c *participantConfig) error { c.listen = addr; return nil }
}

// WithPeers dials BGP sessions to the given addresses at Open: learned
// routes are verified against the peer's sealed commitments (key pinned
// trust-on-first-use when the registry does not already know the peer).
func WithPeers(addrs ...string) Option {
	return func(c *participantConfig) error {
		c.peers = append(c.peers, addrs...)
		return nil
	}
}

// WithHoldTime sets the BGP hold time in seconds (0 disables keepalives
// and hold timing). Default 9.
func WithHoldTime(seconds uint16) Option {
	return func(c *participantConfig) error { c.hold = seconds; return nil }
}

// WithOriginate declares the prefixes this participant originates: each is
// announced by the participant's synthetic upstream provider, committed by
// the engine, and sealed into the first epoch at Open.
func WithOriginate(prefixes ...Prefix) Option {
	return func(c *participantConfig) error {
		c.originate = append(c.originate, prefixes...)
		return nil
	}
}

// WithMaxLen sets the §3.3 bit-vector length (maximum AS-path length K).
// Default 32.
func WithMaxLen(n int) Option {
	return func(c *participantConfig) error {
		if n <= 0 {
			return errConfigf("option", "MaxLen must be positive, got %d", n)
		}
		c.maxLen = n
		return nil
	}
}

// WithShards sets the engine shard count (0 = one per CPU).
func WithShards(n int) Option {
	return func(c *participantConfig) error {
		if n < 0 {
			return errConfigf("option", "Shards must be non-negative, got %d", n)
		}
		c.shards = n
		return nil
	}
}

// WithWorkers sizes the update plane's dirty-prefix rebuild pool
// (0 = GOMAXPROCS).
func WithWorkers(n int) Option {
	return func(c *participantConfig) error {
		if n < 0 {
			return errConfigf("option", "Workers must be non-negative, got %d", n)
		}
		c.workers = n
		return nil
	}
}

// WithWindow sets the streaming commitment window: a window seals at most
// this long after its first event. Zero makes windows seal only on
// MaxBatch overflow or explicit Flush (the deterministic mode tests use).
// Default 250ms.
func WithWindow(d time.Duration) Option {
	return func(c *participantConfig) error {
		if d < 0 {
			return errConfigf("option", "Window must be non-negative, got %s", d)
		}
		c.window = d
		return nil
	}
}

// WithQueueSize bounds the update-plane ingest queue (default 1024).
func WithQueueSize(n int) Option {
	return func(c *participantConfig) error {
		if n < 0 {
			return errConfigf("option", "QueueSize must be non-negative, got %d", n)
		}
		c.queue = n
		return nil
	}
}

// WithMaxBatch forces a streaming window once this many events have
// accumulated (default 4096).
func WithMaxBatch(n int) Option {
	return func(c *participantConfig) error {
		if n < 0 {
			return errConfigf("option", "MaxBatch must be non-negative, got %d", n)
		}
		c.maxBatch = n
		return nil
	}
}

// WithChurn runs a synthetic churn feed of n trace events over the
// originated prefixes after Run starts — the demo workload cmd/pvrd
// exposes as -stream. Requires WithOriginate.
func WithChurn(events int) Option {
	return func(c *participantConfig) error {
		if events < 0 {
			return errConfigf("option", "Churn must be non-negative, got %d", events)
		}
		c.churn = events
		return nil
	}
}

// WithGossipListen serves audit anti-entropy exchanges on addr.
func WithGossipListen(addr string) Option {
	return func(c *participantConfig) error { c.gossipListen = addr; return nil }
}

// WithGossipPeers dials the given audit peers every gossip interval,
// reconciling statement stores and spreading equivocation evidence.
func WithGossipPeers(addrs ...string) Option {
	return func(c *participantConfig) error {
		c.gossipPeers = append(c.gossipPeers, addrs...)
		return nil
	}
}

// WithGossipInterval sets the anti-entropy round interval (default 2s).
func WithGossipInterval(d time.Duration) Option {
	return func(c *participantConfig) error {
		if d <= 0 {
			return errConfigf("option", "GossipInterval must be positive, got %s", d)
		}
		c.gossipInterval = d
		return nil
	}
}

// WithDiscloseListen serves the disclosure query plane on addr: remote
// providers, promisees, and auditors fetch on-demand (prefix, epoch)
// views with QueryDisclosure / RequestDisclosure, each answered with
// exactly the material the access policy α grants the requesting ASN —
// and a typed denial (ErrAccessDenied on the client) otherwise.
func WithDiscloseListen(addr string) Option {
	return func(c *participantConfig) error { c.discloseListen = addr; return nil }
}

// WithPromisees declares the promisee half of α: the ASNs this
// participant's routing promise is made to, and therefore the only
// requesters the disclosure query plane grants a full promisee view
// (opened vector, winning input, export statement). Providers are
// derived from the engine's accepted announcements; everyone else is a
// third party and gets only the sealed commitment.
func WithPromisees(asns ...ASN) Option {
	return func(c *participantConfig) error {
		for _, a := range asns {
			if a == 0 {
				return errConfigf("option", "promisee ASN must be nonzero")
			}
		}
		c.promisees = append(c.promisees, asns...)
		return nil
	}
}

// WithZKDisclosure makes the engine bind a Pedersen commitment vector
// into every shard-seal leaf, enabling zero-knowledge third-party
// openings: auditors query with RoleAuditor and receive a proof that the
// sealed promise holds — the bit vector is well-formed and monotone —
// without any bit being opened. Costs one Pedersen commitment per vector
// element at seal time.
func WithZKDisclosure() Option {
	return func(c *participantConfig) error { c.zkBind = true; return nil }
}

// WithRingKey supplies the participant's ring-signing identity (a
// dedicated RSA key, separate from the Ed25519 protocol key) and registers
// it in the ring directory. Required for issuing anonymous provider
// queries; see GenerateRingKey.
func WithRingKey(k *RingKey) Option {
	return func(c *participantConfig) error {
		if k == nil {
			return errConfigf("option", "RingKey must be non-nil")
		}
		c.ringKey = k
		return nil
	}
}

// WithRingDirectory shares a ring-key directory across participants (the
// ring-signature analogue of WithRegistry): servers resolve ring members'
// public keys from it when checking anonymous queries, and clients build
// rings from it when signing. Default: a private empty directory, which
// can be populated via Participant.RingDirectory.
func WithRingDirectory(d *RingDirectory) Option {
	return func(c *participantConfig) error {
		if d == nil {
			return errConfigf("option", "RingDirectory must be non-nil")
		}
		c.ringDir = d
		return nil
	}
}

// WithLedger persists confirmed equivocation evidence to the file at
// path; convictions survive restarts (the ledger is replayed and
// re-verified at Open).
func WithLedger(path string) Option {
	return func(c *participantConfig) error { c.ledgerPath = path; return nil }
}

// WithLogf directs the participant's operational log lines (session
// events, window summaries, verification results) to fn, e.g.
// log.Printf. Default: discard.
func WithLogf(fn func(format string, args ...any)) Option {
	return func(c *participantConfig) error {
		if fn == nil {
			return errConfigf("option", "Logf must be non-nil")
		}
		c.logf = fn
		return nil
	}
}
