// Package wire defines the frame format and codec shared by every
// inter-server protocol in the naplet system: navigation (launch/landing),
// messaging (post office), directory registration, and locator queries.
//
// A Frame is a typed, addressed envelope. The frame header (Kind, From, To,
// Seq) is encoded with a hand-rolled binary codec — length-prefixed strings
// and varints — and the Payload is opaque bytes owned by the protocol that
// defines the Kind. Everything a dock, device or station sends on its own
// builds its payload from the binary primitives in binary.go (BinaryFrame);
// the six operator-plane bodies a human or the fleet master sends
// (server.ControlBody/ControlReplyBody, fleet.WaveBody/WaveReplyBody/
// NodesBody/NodesReplyBody) are JSON (NewFrame/Frame.Body). Which of the
// two a Kind carries is fixed by its body type; no decoder inspects a
// payload to choose a parser. Frames are what transports move; their
// encoded size is what the network substrates meter, so all traffic
// accounting in the experiments reflects the real encoded bytes.
//
// Wire layout (see DESIGN.md §7 for the full specification):
//
//	[4-byte big-endian body length n]
//	[uvarint len(Kind)] [Kind bytes]
//	[uvarint len(From)] [From bytes]
//	[uvarint len(To)]   [To bytes]
//	[uvarint Seq]
//	[Payload bytes — the remainder of the body]
//
// Because every field's size is known arithmetically, EncodedSize is O(1)
// and allocation-free, and the encode path is a single buffer append with
// no reflection and no per-frame type descriptors.
package wire

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"
)

// Kind identifies the protocol operation a frame carries.
type Kind string

// Frame kinds used by the naplet protocols. Applications may define their
// own kinds; these are the framework's.
const (
	// Navigation protocol (§2.2).
	KindLandingRequest Kind = "navigator.landing-request"
	KindLandingReply   Kind = "navigator.landing-reply"
	KindNapletTransfer Kind = "navigator.naplet-transfer"
	KindTransferAck    Kind = "navigator.transfer-ack"

	// Codebase fetch protocol (§2.1 lazy code loading).
	KindCodeFetch  Kind = "registry.code-fetch"
	KindCodeBundle Kind = "registry.code-bundle"

	// Directory protocol (§4.1).
	KindDirRegister   Kind = "directory.register"
	KindDirLookup     Kind = "directory.lookup"
	KindDirReply      Kind = "directory.reply"
	KindDirDeregister Kind = "directory.deregister"

	// Post-office messaging protocol (§4.2).
	KindPost        Kind = "messenger.post"
	KindPostConfirm Kind = "messenger.confirm"
	KindPostForward Kind = "messenger.forward"

	// Manager/monitor control (§2.2).
	KindControl           Kind = "manager.control"
	KindControlReply      Kind = "manager.control-reply"
	KindReport            Kind = "manager.report"
	KindHomeEvent         Kind = "manager.home-event"
	KindLocatorQuery      Kind = "locator.query"
	KindLocatorReply      Kind = "locator.reply"
	KindLocatorInvalidate Kind = "locator.invalidate"
	KindServiceInvoke     Kind = "resource.service-invoke"
	KindServiceReply      Kind = "resource.service-reply"

	// Fleet control plane (napletd <-> napletmaster, napletctl <-> master).
	KindFleetRegister  Kind = "fleet.register"
	KindFleetHeartbeat Kind = "fleet.heartbeat"
	KindFleetEvents    Kind = "fleet.events"
	KindFleetSubscribe Kind = "fleet.subscribe"
	KindFleetWave      Kind = "fleet.wave"
	KindFleetNodes     Kind = "fleet.nodes"
	KindFleetReply     Kind = "fleet.reply"
)

// Frame is the unit of inter-server communication.
type Frame struct {
	// Kind names the protocol operation.
	Kind Kind
	// From and To are server names (transport addresses).
	From, To string
	// Seq correlates requests and replies on a connection. Its high
	// bits may carry the caller's remaining time budget — see
	// PackBudget.
	Seq uint64
	// Payload is the encoded operation body, opaque to the frame codec.
	Payload []byte
	// ReceivedAt is stamped by the receiving fabric when the frame
	// comes off the wire; it is not encoded. BudgetContext measures
	// the propagated budget from it, so time spent queued before
	// dispatch counts against the caller's deadline.
	ReceivedAt time.Time
}

// Errors reported by the codec.
var (
	ErrFrameTooLarge = errors.New("wire: frame exceeds maximum size")
	ErrTruncated     = errors.New("wire: truncated frame")
	ErrMalformed     = errors.New("wire: malformed encoding")
)

// MaxFrameSize bounds a single frame body on the wire (16 MiB). Naplet
// state and code bundles fit comfortably; the bound protects servers from
// hostile length prefixes.
const MaxFrameSize = 16 << 20

// Marshal JSON-encodes an operator-plane body for embedding in a Frame.
func Marshal(body any) ([]byte, error) {
	payload, err := json.Marshal(body)
	if err != nil {
		return nil, fmt.Errorf("wire: marshal %T: %w", body, err)
	}
	return payload, nil
}

// Unmarshal decodes a payload produced by Marshal into out, which must be a
// pointer.
func Unmarshal(payload []byte, out any) error {
	if err := json.Unmarshal(payload, out); err != nil {
		return fmt.Errorf("wire: unmarshal into %T: %w", out, err)
	}
	return nil
}

// NewFrame builds a frame around an operator-plane body (see Marshal).
func NewFrame(kind Kind, from, to string, body any) (Frame, error) {
	payload, err := Marshal(body)
	if err != nil {
		return Frame{}, err
	}
	return Frame{Kind: kind, From: from, To: to, Payload: payload}, nil
}

// Body decodes the frame payload into out.
func (f *Frame) Body(out any) error { return Unmarshal(f.Payload, out) }

// uvarintLen returns the number of bytes binary.PutUvarint emits for x.
func uvarintLen(x uint64) int {
	return (bits.Len64(x|1) + 6) / 7
}

// headerSize returns the encoded size of the frame header fields (everything
// between the length prefix and the payload).
func (f *Frame) headerSize() int {
	return uvarintLen(uint64(len(f.Kind))) + len(f.Kind) +
		uvarintLen(uint64(len(f.From))) + len(f.From) +
		uvarintLen(uint64(len(f.To))) + len(f.To) +
		uvarintLen(f.Seq)
}

// EncodedSize returns the number of bytes the frame occupies on the wire,
// the quantity metered by the network substrates. It is computed
// arithmetically in O(1) with no allocation and is byte-exact against
// Encode. Frames whose body exceeds MaxFrameSize still report their true
// size here; Encode is where the bound is enforced.
func (f *Frame) EncodedSize() int {
	return 4 + f.headerSize() + len(f.Payload)
}

// appendHeader appends the encoded header fields to dst.
func appendHeader(dst []byte, f *Frame) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(f.Kind)))
	dst = append(dst, f.Kind...)
	dst = binary.AppendUvarint(dst, uint64(len(f.From)))
	dst = append(dst, f.From...)
	dst = binary.AppendUvarint(dst, uint64(len(f.To)))
	dst = append(dst, f.To...)
	dst = binary.AppendUvarint(dst, f.Seq)
	return dst
}

// appendFrame appends the full wire form (length prefix, header, payload)
// to dst, enforcing MaxFrameSize.
func appendFrame(dst []byte, f *Frame) ([]byte, error) {
	body := f.headerSize() + len(f.Payload)
	if body > MaxFrameSize {
		return dst, fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, body)
	}
	var lenbuf [4]byte
	binary.BigEndian.PutUint32(lenbuf[:], uint32(body))
	dst = append(dst, lenbuf[:]...)
	dst = appendHeader(dst, f)
	dst = append(dst, f.Payload...)
	return dst, nil
}

// Encode serializes a frame to its wire form in a single allocation.
func Encode(f Frame) ([]byte, error) {
	out := make([]byte, 0, f.EncodedSize())
	return appendFrame(out, &f)
}

// readString consumes one length-prefixed string from b.
func readString(b []byte) (string, []byte, error) {
	n, sz := binary.Uvarint(b)
	if sz <= 0 || n > uint64(len(b)-sz) {
		return "", nil, ErrMalformed
	}
	return string(b[sz : sz+int(n)]), b[sz+int(n):], nil
}

// decodeBody parses the frame body (header + payload, no length prefix).
// The returned frame's Payload aliases body.
func decodeBody(body []byte) (Frame, error) {
	var f Frame
	kind, rest, err := readString(body)
	if err != nil {
		return Frame{}, err
	}
	f.Kind = Kind(kind)
	if f.From, rest, err = readString(rest); err != nil {
		return Frame{}, err
	}
	if f.To, rest, err = readString(rest); err != nil {
		return Frame{}, err
	}
	seq, n := binary.Uvarint(rest)
	if n <= 0 {
		return Frame{}, ErrMalformed
	}
	f.Seq = seq
	if rest = rest[n:]; len(rest) > 0 {
		f.Payload = rest
	}
	return f, nil
}

// Decode parses a frame from its wire form, returning the frame and the
// number of bytes consumed. The returned frame's Payload aliases data
// (zero-copy); callers that retain the frame beyond the lifetime of data
// must copy the payload.
func Decode(data []byte) (Frame, int, error) {
	if len(data) < 4 {
		return Frame{}, 0, ErrTruncated
	}
	n := binary.BigEndian.Uint32(data)
	if n > MaxFrameSize {
		return Frame{}, 0, fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, n)
	}
	if uint64(len(data)-4) < uint64(n) {
		return Frame{}, 0, ErrTruncated
	}
	f, err := decodeBody(data[4 : 4+n])
	if err != nil {
		return Frame{}, 0, err
	}
	return f, int(4 + n), nil
}

// encBufPool recycles encode buffers across WriteFrame calls. Buffers that
// grew past maxPooledBuf are dropped rather than pinned in the pool.
var encBufPool = sync.Pool{
	New: func() any {
		encBufMisses.Add(1)
		b := make([]byte, 0, 4096)
		return &b
	},
}

// Pool accounting: gets counts every WriteFrame buffer acquisition, misses
// counts the ones the pool could not satisfy (fresh allocations). The
// telemetry layer samples these at scrape time via PoolCounters, keeping
// this package dependency-free.
var encBufGets, encBufMisses atomic.Int64

// PoolCounters reports the encode-buffer pool activity since process
// start: total gets and misses (hits = gets - misses).
func PoolCounters() (gets, misses int64) {
	return encBufGets.Load(), encBufMisses.Load()
}

const maxPooledBuf = 64 << 10

// WriteFrame writes the frame's wire form to w using a pooled buffer, so
// steady-state writes do not allocate.
func WriteFrame(w io.Writer, f Frame) error {
	encBufGets.Add(1)
	bp := encBufPool.Get().(*[]byte)
	buf, err := appendFrame((*bp)[:0], &f)
	if err != nil {
		encBufPool.Put(bp)
		return err
	}
	_, werr := w.Write(buf)
	if cap(buf) <= maxPooledBuf {
		*bp = buf[:0]
		encBufPool.Put(bp)
	}
	return werr
}

// ReadFrame reads one frame from r. The frame's payload is freshly
// allocated and owned by the caller.
func ReadFrame(r io.Reader) (Frame, error) {
	f, _, err := readFrame(r, nil)
	return f, err
}

// ReadFrameReuse reads one frame from r into scratch, growing it as needed,
// and returns the (possibly reallocated) scratch for the next call. The
// returned frame's Payload aliases scratch, so the frame is only valid
// until the next ReadFrameReuse with the same buffer — the pattern used by
// transport loops that fully consume each frame before reading the next.
func ReadFrameReuse(r io.Reader, scratch []byte) (Frame, []byte, error) {
	return readFrame(r, scratch)
}

// readFrame reads the length prefix and body from r. With a nil scratch a
// fresh body buffer is allocated per call; otherwise scratch is reused and
// grown geometrically.
func readFrame(r io.Reader, scratch []byte) (Frame, []byte, error) {
	var lenbuf [4]byte
	if _, err := io.ReadFull(r, lenbuf[:]); err != nil {
		return Frame{}, scratch, err
	}
	n := int(binary.BigEndian.Uint32(lenbuf[:]))
	if n > MaxFrameSize {
		return Frame{}, scratch, fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, n)
	}
	if cap(scratch) < n {
		scratch = make([]byte, n)
	}
	body := scratch[:n]
	if _, err := io.ReadFull(r, body); err != nil {
		if errors.Is(err, io.ErrUnexpectedEOF) {
			return Frame{}, scratch, ErrTruncated
		}
		return Frame{}, scratch, err
	}
	f, err := decodeBody(body)
	if err != nil {
		return Frame{}, scratch, err
	}
	return f, scratch, nil
}

// Error is a serializable error carried in reply frames so that protocol
// errors cross server boundaries with their messages intact.
type Error struct {
	Code    string
	Message string
}

// errorCodecVersion is the leading version byte of an encoded Error.
const errorCodecVersion = 1

// EncodedSize returns the exact encoded size of the error body.
func (e *Error) EncodedSize() int {
	return 1 + SizeString(e.Code) + SizeString(e.Message)
}

// AppendBinary appends [version] [string code] [string message] to dst.
func (e *Error) AppendBinary(dst []byte) []byte {
	dst = append(dst, errorCodecVersion)
	dst = AppendString(dst, e.Code)
	return AppendString(dst, e.Message)
}

// Decode parses an error-reply payload.
func (e *Error) Decode(payload []byte) error {
	rest, err := DecVersion(payload, errorCodecVersion)
	if err != nil {
		return err
	}
	if e.Code, rest, err = DecString(rest); err != nil {
		return err
	}
	e.Message, _, err = DecString(rest)
	return err
}

// Error implements the error interface.
func (e *Error) Error() string {
	if e.Code == "" {
		return e.Message
	}
	return e.Code + ": " + e.Message
}

// NewError builds a wire error with the given machine-readable code.
func NewError(code, format string, args ...any) *Error {
	return &Error{Code: code, Message: fmt.Sprintf(format, args...)}
}
