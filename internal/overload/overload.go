// Package overload implements the dock's defenses against its own load:
// a two-class admission gate (control-plane traffic is never queued
// behind bulk migrations and mail), per-peer circuit breakers integrated
// with the health detector's liveness lattice, and token-bucket retry
// budgets that keep client retries a bounded fraction of first attempts.
//
// The package sits below transport in the dependency order (it imports
// only wire, health and telemetry) so both fabrics and every component
// can share its typed errors. The errors travel the wire as wire.Error
// codes (see CodeFor / FromCode) and are re-hydrated into the same
// sentinels on the caller's side, so errors.Is works across a hop.
package overload

import (
	"errors"
	"time"
)

// Typed sentinels. Both ErrOverloaded and ErrDeadlinePast are raised
// before the request has any effect on the server — the admission gate
// and the budget check run ahead of dispatch — so transport counts them
// as provable refusals (no ghost side effects) and clients may retry
// them freely, subject to their retry budget.
var (
	// ErrOverloaded: the admission gate shed the request (queue full,
	// queue delay above target, or a synthesized fault-injector shed).
	// Retryable after backoff.
	ErrOverloaded = errors.New("overload: server overloaded")

	// ErrDeadlinePast: the caller's propagated budget had already
	// expired when the server was about to dispatch the request, so the
	// work was shed instead of burning cycles on an answer nobody is
	// waiting for.
	ErrDeadlinePast = errors.New("overload: deadline already past")

	// ErrBreakerOpen: the per-peer circuit breaker is open; the call
	// was refused locally without touching the network.
	ErrBreakerOpen = errors.New("overload: circuit breaker open")

	// ErrRetryBudgetExhausted: the token-bucket retry budget ran dry;
	// the failed attempt is surfaced instead of amplified.
	ErrRetryBudgetExhausted = errors.New("overload: retry budget exhausted")
)

// Wire error codes for the sentinels that cross hops.
const (
	CodeOverloaded   = "overloaded"
	CodeDeadlinePast = "deadline-past"
)

// CodeFor maps a handler error onto its wire code, or "" when the error
// carries no overload semantics.
func CodeFor(err error) string {
	switch {
	case errors.Is(err, ErrOverloaded):
		return CodeOverloaded
	case errors.Is(err, ErrDeadlinePast):
		return CodeDeadlinePast
	}
	return ""
}

// FromCode maps a wire error code back to its sentinel, or nil.
func FromCode(code string) error {
	switch code {
	case CodeOverloaded:
		return ErrOverloaded
	case CodeDeadlinePast:
		return ErrDeadlinePast
	}
	return nil
}

// Liveness reports whether err, for all its badness, proves the peer is
// up: an overload or deadline shed is an answer the peer composed and
// sent, so it must not feed failure suspicion or trip breakers.
func Liveness(err error) bool {
	return errors.Is(err, ErrOverloaded) || errors.Is(err, ErrDeadlinePast)
}

// Options is the flat, flag-friendly bundle a server (or napletd) uses
// to switch the whole overload stack on. The zero value of each field
// takes the corresponding component default; a nil *Options disables
// the stack entirely (gate, breakers and budgets all stay nil, and
// every call path treats nil as "allow").
type Options struct {
	// Admission gate (see GateConfig).
	MaxInFlight int
	MaxQueue    int
	MaxWait     time.Duration

	// Circuit breaker (see BreakerConfig).
	BreakerFailures int

	// Retry budgets: tokens earned per first attempt and the bucket
	// cap. Ratio 0.1 means sustained retries are capped at ~10% of the
	// first-attempt rate.
	RetryRatio float64
	RetryBurst float64
}
