package pvr

import (
	"context"
	"errors"
	"fmt"

	"pvr/internal/bgp"
	"pvr/internal/discplane"
	"pvr/internal/engine"
	"pvr/internal/netx"
	"pvr/internal/updplane"
)

// Kind classifies an Error for programmatic handling: every error the
// public API returns wraps one of these categories, so callers switch on
// Kind (or errors.Is against the matching sentinel) instead of matching
// strings or importing internal packages.
type Kind int

// Error kinds.
const (
	// KindUnknown is an unclassified failure.
	KindUnknown Kind = iota
	// KindConfig is an invalid option or configuration combination.
	KindConfig
	// KindTransport is a dial, listen, or wire failure.
	KindTransport
	// KindBackpressure reports a full ingest queue (retry or shed load).
	KindBackpressure
	// KindSessionClosed reports an operation on an ended BGP session.
	KindSessionClosed
	// KindConvicted reports material rejected because its origin stands
	// convicted by the audit network.
	KindConvicted
	// KindClosed reports an operation on a closed component (plane,
	// participant, connection).
	KindClosed
	// KindCanceled reports an operation abandoned because the caller's
	// context ended (cancellation or deadline) — the component itself is
	// still healthy.
	KindCanceled
	// KindVerification is a failed signature, seal, or disclosure check.
	KindVerification
	// KindNotFound reports a missing prefix, node, or address.
	KindNotFound
	// KindAccessDenied reports a disclosure query refused by the access
	// policy α: the requester is not entitled to the view it asked for, or
	// could not be authenticated as the principal it claimed to be.
	KindAccessDenied
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindConfig:
		return "config"
	case KindTransport:
		return "transport"
	case KindBackpressure:
		return "backpressure"
	case KindSessionClosed:
		return "session-closed"
	case KindConvicted:
		return "convicted"
	case KindClosed:
		return "closed"
	case KindCanceled:
		return "canceled"
	case KindVerification:
		return "verification"
	case KindNotFound:
		return "not-found"
	case KindAccessDenied:
		return "access-denied"
	}
	return "unknown"
}

// Error is the unified public error type: a Kind for category matching, the
// operation that failed, and the underlying cause (reachable through
// errors.Unwrap, so errors.Is against internal sentinels keeps working).
//
// Matching is by kind: errors.Is(err, ErrBackpressure) is true for any
// *Error whose Kind is KindBackpressure, regardless of cause or operation.
type Error struct {
	// Kind is the error category.
	Kind Kind
	// Op names the failed operation ("open", "dial", "submit", …).
	Op string
	// Err is the underlying cause; may be nil for pure sentinels.
	Err error
}

// Error formats "pvr: op: cause".
func (e *Error) Error() string {
	switch {
	case e.Op != "" && e.Err != nil:
		return fmt.Sprintf("pvr: %s: %v", e.Op, e.Err)
	case e.Err != nil:
		return fmt.Sprintf("pvr: %v", e.Err)
	case e.Op != "":
		return fmt.Sprintf("pvr: %s: %s", e.Op, e.Kind)
	}
	return "pvr: " + e.Kind.String()
}

// Unwrap exposes the cause to errors.Is / errors.As.
func (e *Error) Unwrap() error { return e.Err }

// Is matches any *Error of the same Kind, making the Err* sentinels below
// usable with errors.Is on every wrapped public-API error.
func (e *Error) Is(target error) bool {
	t, ok := target.(*Error)
	return ok && t.Kind == e.Kind
}

// Sentinels for errors.Is. Each matches every public-API error of its
// kind; the underlying internal causes remain reachable via Unwrap.
var (
	// ErrConfig matches invalid options and configuration.
	ErrConfig = &Error{Kind: KindConfig}
	// ErrTransport matches dial/listen/wire failures.
	ErrTransport = &Error{Kind: KindTransport}
	// ErrBackpressure matches a full ingest queue.
	ErrBackpressure = &Error{Kind: KindBackpressure}
	// ErrSessionClosed matches operations on an ended BGP session.
	ErrSessionClosed = &Error{Kind: KindSessionClosed}
	// ErrConvicted matches material rejected because its origin stands
	// convicted by the audit network.
	ErrConvicted = &Error{Kind: KindConvicted}
	// ErrClosed matches operations on a closed component.
	ErrClosed = &Error{Kind: KindClosed}
	// ErrCanceled matches operations abandoned by the caller's context;
	// the underlying context.Canceled / context.DeadlineExceeded stays
	// reachable through Unwrap.
	ErrCanceled = &Error{Kind: KindCanceled}
	// ErrVerification matches failed signature/seal/disclosure checks.
	ErrVerification = &Error{Kind: KindVerification}
	// ErrNotFound matches missing prefixes, nodes, and addresses.
	ErrNotFound = &Error{Kind: KindNotFound}
	// ErrAccessDenied matches disclosure queries refused by the access
	// policy α (the server answered DENY: the requester is not entitled to
	// the view it asked for).
	ErrAccessDenied = &Error{Kind: KindAccessDenied}
)

// classify maps an underlying error onto its public Kind.
func classify(err error) Kind {
	switch {
	case err == nil:
		return KindUnknown
	case errors.Is(err, updplane.ErrQueueFull):
		return KindBackpressure
	case errors.Is(err, bgp.ErrSessionClosed):
		return KindSessionClosed
	case errors.Is(err, engine.ErrConvictedProver):
		return KindConvicted
	case errors.Is(err, discplane.ErrAccessDenied):
		return KindAccessDenied
	case errors.Is(err, discplane.ErrNotServed):
		return KindNotFound
	case errors.Is(err, discplane.ErrBadQuery), errors.Is(err, discplane.ErrWire):
		return KindTransport
	case errors.Is(err, updplane.ErrClosed), errors.Is(err, netx.ErrClosed):
		return KindClosed
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return KindCanceled
	}
	var e *Error
	if errors.As(err, &e) {
		return e.Kind
	}
	return KindUnknown
}

// wrapErr wraps an internal error as a classified *Error. An error that
// already is (or wraps) an *Error passes through unchanged: its Kind is
// set and double "pvr:" prefixes in messages help nobody.
func wrapErr(op string, err error) error {
	if err == nil {
		return nil
	}
	var e *Error
	if errors.As(err, &e) {
		return err
	}
	return &Error{Kind: classify(err), Op: op, Err: err}
}

// errConfigf builds a KindConfig error.
func errConfigf(op, format string, args ...any) error {
	return &Error{Kind: KindConfig, Op: op, Err: fmt.Errorf(format, args...)}
}

// errKind wraps err under an explicit kind.
func errKind(kind Kind, op string, err error) error {
	if err == nil {
		return nil
	}
	return &Error{Kind: kind, Op: op, Err: err}
}
