package overload

import (
	"sync"

	"repro/internal/telemetry"
)

// RetryBudgetConfig parameterizes a token-bucket retry budget.
type RetryBudgetConfig struct {
	// Ratio is the fraction of a token each first attempt earns
	// (default 0.2): sustained retry rate can never exceed Ratio times
	// the first-attempt rate.
	Ratio float64
	// Burst is the bucket cap and its initial fill (default 10), so a
	// cold client can still ride out a short brownout.
	Burst float64
	// Name labels the exhaustion counter (e.g. "navigator",
	// "messenger") so one registry can carry several budgets.
	Name string
	// Telemetry, when set, exports the exhaustion counter and a token
	// gauge.
	Telemetry *telemetry.Registry
}

func (c RetryBudgetConfig) withDefaults() RetryBudgetConfig {
	if c.Ratio <= 0 {
		c.Ratio = 0.2
	}
	if c.Burst <= 0 {
		c.Burst = 10
	}
	if c.Name == "" {
		c.Name = "client"
	}
	return c
}

// RetryBudget is a token-bucket bound on retries, after gRPC's retry
// throttling: every first attempt credits Ratio of a token, every
// retry debits a whole token, and a retry is permitted only when a
// whole token is available. The arithmetic guarantees retries are at
// most a Ratio fraction of first attempts in sustained overload —
// breaking the retry-amplification feedback loop that turns a brownout
// into congestion collapse. A nil *RetryBudget disables the bound
// (every retry allowed), which is the default everywhere: chaos and
// fault suites deliberately retry hundreds of times across crash
// windows and must keep doing so unless a budget is configured.
type RetryBudget struct {
	cfg RetryBudgetConfig

	mu     sync.Mutex
	tokens float64

	exhausted *telemetry.Counter
}

// NewRetryBudget builds a budget from cfg.
func NewRetryBudget(cfg RetryBudgetConfig) *RetryBudget {
	rb := &RetryBudget{cfg: cfg.withDefaults()}
	rb.tokens = rb.cfg.Burst
	if reg := rb.cfg.Telemetry; reg != nil {
		rb.exhausted = reg.Counter("naplet_retry_budget_exhausted_total",
			"retries refused by the token-bucket retry budget",
			"component", rb.cfg.Name)
		reg.GaugeFunc("naplet_retry_budget_tokens",
			"retry tokens currently available",
			func() float64 { return rb.Tokens() },
			"component", rb.cfg.Name)
	}
	return rb
}

// RecordAttempt credits the budget for one first attempt.
func (rb *RetryBudget) RecordAttempt() {
	if rb == nil {
		return
	}
	rb.mu.Lock()
	rb.tokens += rb.cfg.Ratio
	if rb.tokens > rb.cfg.Burst {
		rb.tokens = rb.cfg.Burst
	}
	rb.mu.Unlock()
}

// AllowRetry debits one token and reports whether the retry may
// proceed. A nil budget always allows.
func (rb *RetryBudget) AllowRetry() bool {
	if rb == nil {
		return true
	}
	rb.mu.Lock()
	ok := rb.tokens >= 1
	if ok {
		rb.tokens--
	}
	rb.mu.Unlock()
	if !ok && rb.exhausted != nil {
		rb.exhausted.Inc()
	}
	return ok
}

// Tokens reports the current token balance.
func (rb *RetryBudget) Tokens() float64 {
	if rb == nil {
		return 0
	}
	rb.mu.Lock()
	defer rb.mu.Unlock()
	return rb.tokens
}
