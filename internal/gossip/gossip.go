// Package gossip defines what PVR's neighbors gossip about and what they
// catch: "A's neighbors can gossip about c to ensure that they all have the
// same view" (§3.2, §3.6). A Statement is one signed commitment on a topic;
// a Conflict is two validly signed, different statements by the same
// origin on the same topic — an equivocation, carried as transferable
// evidence any third party can re-verify. The store that compares
// statements and the exchange that spreads them are internal/auditnet.
package gossip

import (
	"bytes"
	"errors"
	"fmt"

	"pvr/internal/aspath"
	"pvr/internal/sigs"
)

// Statement is a signed utterance by Origin on a topic: for PVR, the
// canonical bytes of a commitment (min vector, existential bit, or graph
// root) for one (prefix, epoch).
type Statement struct {
	Origin  aspath.ASN
	Topic   string
	Payload []byte // canonical signed bytes (include the topic's identity)
	Sig     []byte // Origin's signature over Payload
}

// Verify checks the statement's signature against the registry.
func (s *Statement) Verify(reg sigs.Verifier) error {
	// Delegate to the verifier's own Verify rather than Lookup+key.Verify:
	// memoizing or caching verifiers intercept the triple-level call, so a
	// statement checked here is settled for every other path sharing the
	// memo (seal checks use the identical (origin, payload, sig) triple).
	return reg.Verify(s.Origin, s.Payload, s.Sig)
}

// Equal reports whether two statements carry identical payloads.
func (s *Statement) Equal(o *Statement) bool {
	return s.Origin == o.Origin && s.Topic == o.Topic && bytes.Equal(s.Payload, o.Payload)
}

// Conflict is a detected equivocation: two validly signed, different
// payloads from the same origin on the same topic. It is transferable
// evidence — any third party can re-verify both signatures.
type Conflict struct {
	Origin aspath.ASN
	Topic  string
	A, B   Statement
}

// Error implements error so conflicts can flow through error returns.
func (c *Conflict) Error() string {
	return fmt.Sprintf("gossip: %s equivocated on %q", c.Origin, c.Topic)
}

// Verify re-checks the conflict from scratch: both statements validly
// signed by the accused, same topic, different payloads. A forged conflict
// fails here — this is what makes gossip conflicts judge-ready evidence.
func (c *Conflict) Verify(reg sigs.Verifier) error {
	if c.A.Origin != c.Origin || c.B.Origin != c.Origin || c.A.Topic != c.Topic || c.B.Topic != c.Topic {
		return errors.New("gossip: conflict statements do not match accusation")
	}
	if err := c.A.Verify(reg); err != nil {
		return fmt.Errorf("gossip: statement A: %w", err)
	}
	if err := c.B.Verify(reg); err != nil {
		return fmt.Errorf("gossip: statement B: %w", err)
	}
	if bytes.Equal(c.A.Payload, c.B.Payload) {
		return errors.New("gossip: statements are identical, no equivocation")
	}
	return nil
}
