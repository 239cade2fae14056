package overload

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/telemetry"
	"repro/internal/wire"
)

func TestCodeRoundTrip(t *testing.T) {
	cases := []struct {
		err  error
		code string
	}{
		{ErrOverloaded, CodeOverloaded},
		{ErrDeadlinePast, CodeDeadlinePast},
		{fmt.Errorf("wrapped: %w", ErrOverloaded), CodeOverloaded},
		{errors.New("plain"), ""},
		{ErrRetryBudgetExhausted, ""}, // budget refusals are local, never cross a hop
	}
	for _, tc := range cases {
		if got := CodeFor(tc.err); got != tc.code {
			t.Fatalf("CodeFor(%v) = %q, want %q", tc.err, got, tc.code)
		}
	}
	if !errors.Is(FromCode(CodeOverloaded), ErrOverloaded) {
		t.Fatal("FromCode(overloaded)")
	}
	if !errors.Is(FromCode(CodeDeadlinePast), ErrDeadlinePast) {
		t.Fatal("FromCode(deadline-past)")
	}
	if FromCode("handler") != nil || FromCode("") != nil {
		t.Fatal("unknown codes must map to nil")
	}
}

func TestLiveness(t *testing.T) {
	for _, err := range []error{
		ErrOverloaded,
		ErrDeadlinePast,
		fmt.Errorf("hop: %w", ErrOverloaded),
	} {
		if !Liveness(err) {
			t.Fatalf("Liveness(%v) = false", err)
		}
	}
	for _, err := range []error{
		ErrRetryBudgetExhausted,
		errors.New("connection refused"),
		nil,
	} {
		if Liveness(err) {
			t.Fatalf("Liveness(%v) = true", err)
		}
	}
}

func TestClassify(t *testing.T) {
	bulk := []wire.Kind{
		wire.KindLandingRequest, wire.KindNapletTransfer, wire.KindCodeFetch,
		wire.KindCodeBundle, wire.KindPost, wire.KindPostForward, wire.KindServiceInvoke,
	}
	for _, k := range bulk {
		if got := Classify(k); got != ClassBulk {
			t.Fatalf("Classify(%v) = %v, want bulk", k, got)
		}
	}
	control := []wire.Kind{
		wire.KindLocatorQuery, wire.KindLocatorInvalidate,
		wire.KindDirRegister, wire.KindDirLookup, wire.KindControl, wire.KindReport,
	}
	for _, k := range control {
		if got := Classify(k); got != ClassControl {
			t.Fatalf("Classify(%v) = %v, want control", k, got)
		}
	}
	if ClassControl.String() != "control" || ClassBulk.String() != "bulk" {
		t.Fatal("class names feed telemetry labels and must not drift")
	}
}

func TestRetryBudgetNil(t *testing.T) {
	var rb *RetryBudget
	rb.RecordAttempt()
	for i := 0; i < 100; i++ {
		if !rb.AllowRetry() {
			t.Fatal("nil budget must always allow")
		}
	}
	if rb.Tokens() != 0 {
		t.Fatal("nil budget records nothing")
	}
}

func TestRetryBudgetBurstThenRatio(t *testing.T) {
	reg := telemetry.NewRegistry()
	rb := NewRetryBudget(RetryBudgetConfig{Ratio: 0.2, Burst: 3, Telemetry: reg})
	exhausted := reg.Counter("naplet_retry_budget_exhausted_total", "", "component", "client")
	// The initial fill covers a short brownout: Burst retries pass cold.
	for i := 0; i < 3; i++ {
		if !rb.AllowRetry() {
			t.Fatalf("burst retry %d refused", i)
		}
	}
	if rb.AllowRetry() {
		t.Fatal("bucket empty: retry must be refused")
	}
	if exhausted.Value() != 1 {
		t.Fatalf("exhausted = %d, want 1", exhausted.Value())
	}
	// Five first attempts earn exactly one token at Ratio 0.2.
	for i := 0; i < 4; i++ {
		rb.RecordAttempt()
		if rb.AllowRetry() {
			t.Fatalf("partial token after %d attempts must not allow a retry", i+1)
		}
	}
	rb.RecordAttempt()
	if !rb.AllowRetry() {
		t.Fatal("five attempts at ratio 0.2 earn one retry")
	}
	if rb.AllowRetry() {
		t.Fatal("the earned token was spent")
	}
}

func TestRetryBudgetCapsAtBurst(t *testing.T) {
	rb := NewRetryBudget(RetryBudgetConfig{Ratio: 1, Burst: 2})
	for i := 0; i < 100; i++ {
		rb.RecordAttempt()
	}
	allowed := 0
	for rb.AllowRetry() {
		allowed++
	}
	if allowed != 2 {
		t.Fatalf("bucket must cap at Burst: allowed %d", allowed)
	}
}

// TestRetryBudgetSustainedRatio is the amplification bound: in sustained
// overload where every attempt fails, retries settle at Ratio times the
// first-attempt rate.
func TestRetryBudgetSustainedRatio(t *testing.T) {
	rb := NewRetryBudget(RetryBudgetConfig{Ratio: 0.1, Burst: 5})
	firsts, retries := 0, 0
	for i := 0; i < 2000; i++ {
		rb.RecordAttempt()
		firsts++
		if rb.AllowRetry() {
			retries++
		}
	}
	// Steady-state retries = Ratio * firsts, plus the initial Burst.
	max := int(0.1*float64(firsts)) + 5
	if retries > max {
		t.Fatalf("retries %d exceed budget bound %d", retries, max)
	}
	if retries < max-1 {
		t.Fatalf("retries %d fall short of the earned budget %d", retries, max)
	}
}
