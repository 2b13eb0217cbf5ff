package pvr

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"pvr/internal/bgp"
	"pvr/internal/engine"
	"pvr/internal/netx"
	"pvr/internal/updplane"
)

// TestErrorTaxonomyBridgesInternalSentinels pins the contract that makes
// the redesigned surface usable: any internal error wrapped by the public
// API matches both its public Kind sentinel (errors.Is) and the original
// internal sentinel (through Unwrap), so neither new nor legacy callers
// break.
func TestErrorTaxonomyBridgesInternalSentinels(t *testing.T) {
	cases := []struct {
		name     string
		internal error
		sentinel *Error
		kind     Kind
	}{
		{"queue-full", updplane.ErrQueueFull, ErrBackpressure, KindBackpressure},
		{"session-closed", bgp.ErrSessionClosed, ErrSessionClosed, KindSessionClosed},
		{"convicted", engine.ErrConvictedProver, ErrConvicted, KindConvicted},
		{"plane-closed", updplane.ErrClosed, ErrClosed, KindClosed},
		{"conn-closed", netx.ErrClosed, ErrClosed, KindClosed},
		{"ctx-cancelled", context.Canceled, ErrCanceled, KindCanceled},
		{"ctx-deadline", context.DeadlineExceeded, ErrCanceled, KindCanceled},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			wrapped := wrapErr("op", fmt.Errorf("outer: %w", tc.internal))
			if !errors.Is(wrapped, tc.sentinel) {
				t.Errorf("errors.Is(wrapped, %v sentinel) = false", tc.kind)
			}
			if !errors.Is(wrapped, tc.internal) {
				t.Errorf("wrapped error lost its internal cause %v", tc.internal)
			}
			var e *Error
			if !errors.As(wrapped, &e) || e.Kind != tc.kind {
				t.Errorf("errors.As kind = %v, want %v", e.Kind, tc.kind)
			}
		})
	}
}

// TestErrorSentinelsAreDisjoint verifies kinds do not cross-match.
func TestErrorSentinelsAreDisjoint(t *testing.T) {
	wrapped := wrapErr("op", updplane.ErrQueueFull)
	for _, other := range []*Error{ErrConfig, ErrTransport, ErrSessionClosed, ErrConvicted, ErrClosed, ErrVerification, ErrNotFound} {
		if errors.Is(wrapped, other) {
			t.Errorf("backpressure error matched %s sentinel", other.Kind)
		}
	}
}

func TestWrapErrIdempotentAndNilSafe(t *testing.T) {
	if wrapErr("op", nil) != nil {
		t.Error("wrapErr(nil) != nil")
	}
	once := wrapErr("op", updplane.ErrQueueFull)
	if twice := wrapErr("op", once); twice != once {
		t.Errorf("double wrap of same op changed the error: %v", twice)
	}
}
