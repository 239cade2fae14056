package wire

import "time"

// Deadline propagation rides inside the Seq field rather than adding a
// field to Frame. In memory Seq is opaque end to end: the caller assigns
// it, the responder echoes it verbatim, and the client mux correlates on
// the full packed value, so folding the budget into its unused high bits
// is invisible to anything that does not explicitly unpack it.
//
// Packed layout in memory (big to small):
//
//	bit  63     budget-present flag
//	bits 41..62 remaining budget, milliseconds (saturating, ~69.9 min max)
//	bits 0..40  sequence number (2^41 calls per connection)
//
// On the wire the two halves travel apart, because a uvarint of the packed
// value is ten bytes whenever the flag is set — on every request and again
// on the reply that echoes it:
//
//	[uvarint sequence<<1 | hasBudget] [uvarint budget ms, if hasBudget]
//
// which is three to five bytes for the budgets and sequence numbers calls
// really carry. Decoding re-packs, so Frame.Seq reads the same on both
// sides; the golden fixtures under testdata/ pin both forms.
const (
	budgetFlag  = uint64(1) << 63
	budgetBits  = 22
	seqBits     = 63 - budgetBits
	seqMask     = uint64(1)<<seqBits - 1
	maxBudgetMS = uint64(1)<<budgetBits - 1
	budgetUnit  = time.Millisecond
	budgetRound = budgetUnit - time.Nanosecond
)

// MaxBudget is the largest remaining-time budget the frame header can
// carry; larger budgets saturate to it (the caller's own context still
// enforces the true deadline).
const MaxBudget = time.Duration(maxBudgetMS) * budgetUnit

// PackBudget folds a positive remaining-time budget into seq's high
// bits, rounding up to the millisecond so sub-millisecond budgets are
// not lost. A non-positive remaining returns seq unchanged (no budget
// flag).
func PackBudget(seq uint64, remaining time.Duration) uint64 {
	if remaining <= 0 {
		return seq
	}
	ms := uint64((remaining + budgetRound) / budgetUnit)
	if ms > maxBudgetMS {
		ms = maxBudgetMS
	}
	return seq&seqMask | budgetFlag | ms<<seqBits
}

// Budget unpacks the propagated remaining-time budget, reporting false
// when the frame carries none.
func (f *Frame) Budget() (time.Duration, bool) {
	if f.Seq&budgetFlag == 0 {
		return 0, false
	}
	return time.Duration(f.Seq>>seqBits&maxBudgetMS) * budgetUnit, true
}

// Deadline returns the moment this frame's propagated budget runs out:
// ReceivedAt plus the budget, measured from now when the fabric did not
// stamp receipt, so time spent queued before dispatch counts against the
// caller. A frame without a budget reports false. It builds nothing: a
// server that waits or chases on the frame's behalf derives its own
// context from it, and one that answers at once needs none.
func (f *Frame) Deadline() (time.Time, bool) {
	d, ok := f.Budget()
	if !ok {
		return time.Time{}, false
	}
	base := f.ReceivedAt
	if base.IsZero() {
		base = time.Now()
	}
	return base.Add(d), true
}

// DeadlineWithin returns the frame's deadline, but no later than limit
// from now: the one deadline a server-side wait made for this frame runs
// to, the caller's budget bounding a limit the server sets itself.
func (f *Frame) DeadlineWithin(limit time.Duration) time.Time {
	at := time.Now().Add(limit)
	if dl, ok := f.Deadline(); ok && dl.Before(at) {
		return dl
	}
	return at
}

// sizeSeq returns the encoded size of appendSeq(seq).
func sizeSeq(seq uint64) int {
	if seq&budgetFlag == 0 {
		return uvarintLen(seq << 1)
	}
	return uvarintLen((seq&seqMask)<<1|1) + uvarintLen(seq>>seqBits&maxBudgetMS)
}

// appendSeq appends a packed Seq in its wire form (see the layout above).
// A Seq without the budget flag keeps all 63 of its bits.
func appendSeq(dst []byte, seq uint64) []byte {
	if seq&budgetFlag == 0 {
		return AppendUvarint(dst, seq<<1)
	}
	dst = AppendUvarint(dst, (seq&seqMask)<<1|1)
	return AppendUvarint(dst, seq>>seqBits&maxBudgetMS)
}

// decodeSeq consumes one wire-form Seq and returns it packed. A budget or
// a budgeted sequence number too large for its field is malformed, never
// truncated into its neighbour's bits.
func decodeSeq(b []byte) (uint64, []byte, error) {
	first, b, err := DecUvarint(b)
	if err != nil || first&1 == 0 {
		return first >> 1, b, err
	}
	ms, b, err := DecUvarint(b)
	if err != nil || first>>1 > seqMask || ms > maxBudgetMS {
		return 0, nil, ErrMalformed
	}
	return first>>1 | budgetFlag | ms<<seqBits, b, nil
}
