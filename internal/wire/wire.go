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
// Wire layout, frame version 2 (see DESIGN.md §7 for the full
// specification):
//
//	[4-byte big-endian word: version in the top 4 bits, body length n below]
//	[kind byte: index into the kind table; 0 escapes to [string Kind]]
//	[uvarint len(From)] [From bytes]
//	[uvarint len(To)]   [To bytes]
//	[uvarint sequence<<1 | hasBudget] [uvarint budget ms, if hasBudget]
//	[Payload bytes — the remainder of the body]
//
// Because every field's size is known arithmetically, EncodedSize is O(1)
// and allocation-free, and the encode path is a single buffer append with
// no reflection and no per-frame type descriptors.
package wire

import (
	"bufio"
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

	// Conventional SNMP polling, the §6 baseline (package cnmp).
	KindSNMPRequest Kind = "snmp.request"
	KindSNMPReply   Kind = "snmp.reply"
	KindSNMPTrap    Kind = "snmp.trap"
)

// kindTable is the wire code of every kind above: a table kind travels as
// its index, one byte. Code 0 is the escape — the kind follows as a string —
// for kinds outside the table (an application's own, a "<kind>.error"
// reply). Codes are append-only: one that has shipped is never reassigned.
var kindTable = [...]Kind{
	1:  KindLandingRequest,
	2:  KindLandingReply,
	3:  KindNapletTransfer,
	4:  KindTransferAck,
	5:  KindCodeFetch,
	6:  KindCodeBundle,
	7:  KindDirRegister,
	8:  KindDirLookup,
	9:  KindDirReply,
	10: KindDirDeregister,
	11: KindPost,
	12: KindPostConfirm,
	13: KindPostForward,
	14: KindControl,
	15: KindControlReply,
	16: KindReport,
	17: KindHomeEvent,
	18: KindLocatorQuery,
	19: KindLocatorReply,
	20: KindLocatorInvalidate,
	21: KindServiceInvoke,
	22: KindServiceReply,
	23: KindFleetRegister,
	24: KindFleetHeartbeat,
	25: KindFleetEvents,
	26: KindFleetSubscribe,
	27: KindFleetWave,
	28: KindFleetNodes,
	29: KindFleetReply,
	30: KindSNMPRequest,
	31: KindSNMPReply,
	32: KindSNMPTrap,
}

// kindEscape is the kind byte that announces a string kind.
const kindEscape = 0

// kindCodes inverts kindTable for the encoder.
var kindCodes = func() map[Kind]byte {
	codes := make(map[Kind]byte, len(kindTable))
	for code, kind := range kindTable[1:] {
		codes[kind] = byte(code + 1)
	}
	return codes
}()

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
	// comes off the wire; it is not encoded. Deadline measures the
	// propagated budget from it, so time spent queued before
	// dispatch counts against the caller's deadline.
	ReceivedAt time.Time
}

// Errors reported by the codec.
var (
	ErrFrameTooLarge = errors.New("wire: frame exceeds maximum size")
	ErrFrameVersion  = errors.New("wire: unsupported frame version")
	ErrTruncated     = errors.New("wire: truncated frame")
	ErrMalformed     = errors.New("wire: malformed encoding")
)

// MaxFrameSize bounds a single frame body on the wire (16 MiB). Naplet
// state and code bundles fit comfortably; the bound protects servers from
// hostile length prefixes.
const MaxFrameSize = 16 << 20

// frameVersion is the frame layout version. It rides in the top bits of the
// length word, which MaxFrameSize leaves unused, so it costs no byte; a
// frame of any other version — version 1 had none and reads as 0 — is
// refused with ErrFrameVersion before a byte of its header is interpreted.
const (
	frameVersion = 2
	versionShift = 28
	lengthMask   = 1<<versionShift - 1
)

// bodyLength checks a length word's version and bound and returns the body
// length it announces.
func bodyLength(word uint32) (int, error) {
	if v := word >> versionShift; v != frameVersion {
		return 0, fmt.Errorf("%w %d", ErrFrameVersion, v)
	}
	n := word & lengthMask
	if n > MaxFrameSize {
		return 0, fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, n)
	}
	return int(n), nil
}

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

// sizeString returns the encoded size of AppendString(s).
func sizeString(s string) int {
	return uvarintLen(uint64(len(s))) + len(s)
}

// headerSize returns the encoded size of the frame header fields (everything
// between the length prefix and the payload) given the kind's wire code.
func (f *Frame) headerSize(code byte) int {
	n := 1 + sizeString(f.From) + sizeString(f.To) + sizeSeq(f.Seq)
	if code == kindEscape {
		n += sizeString(string(f.Kind))
	}
	return n
}

// EncodedSize returns the number of bytes the frame occupies on the wire,
// the quantity metered by the network substrates. It is computed
// arithmetically in O(1) with no allocation and is byte-exact against
// Encode. Frames whose body exceeds MaxFrameSize still report their true
// size here; Encode is where the bound is enforced.
func (f *Frame) EncodedSize() int {
	return 4 + f.headerSize(kindCodes[f.Kind]) + len(f.Payload)
}

// appendFrame appends the full wire form (length word, header, payload)
// to dst, enforcing MaxFrameSize.
func appendFrame(dst []byte, f *Frame) ([]byte, error) {
	code := kindCodes[f.Kind]
	body := f.headerSize(code) + len(f.Payload)
	if body > MaxFrameSize {
		return dst, fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, body)
	}
	dst = binary.BigEndian.AppendUint32(dst, frameVersion<<versionShift|uint32(body))
	dst = append(dst, code)
	if code == kindEscape {
		dst = AppendString(dst, string(f.Kind))
	}
	dst = AppendString(dst, f.From)
	dst = AppendString(dst, f.To)
	dst = appendSeq(dst, f.Seq)
	return append(dst, f.Payload...), nil
}

// Encode serializes a frame to its wire form in a single allocation.
func Encode(f Frame) ([]byte, error) {
	out := make([]byte, 0, f.EncodedSize())
	return appendFrame(out, &f)
}

// readString consumes one length-prefixed string from b.
func readString(b []byte) (string, []byte, error) {
	p, rest, err := DecBytes(b)
	return string(p), rest, err
}

// readName consumes one length-prefixed name from b. When the bytes spell
// *last it returns *last without allocating; otherwise the new name is
// stored there for the next frame.
func readName(b []byte, last *string) (string, []byte, error) {
	p, rest, err := DecBytes(b)
	if err != nil {
		return "", rest, err
	}
	if string(p) != *last {
		*last = string(p)
	}
	return *last, rest, nil
}

// decodeBody parses the frame body (header + payload, no length word).
// The returned frame's Payload aliases body. A table kind decodes to the
// table's own constant, so it allocates nothing; From and To reuse *from
// and *to when their bytes match (see readName).
func decodeBody(body []byte, from, to *string) (Frame, error) {
	var f Frame
	if len(body) == 0 || int(body[0]) >= len(kindTable) {
		return Frame{}, ErrMalformed
	}
	code, rest := body[0], body[1:]
	f.Kind = kindTable[code]
	var err error
	if code == kindEscape {
		var kind string
		if kind, rest, err = readString(rest); err != nil {
			return Frame{}, err
		}
		f.Kind = Kind(kind)
	}
	if f.From, rest, err = readName(rest, from); err != nil {
		return Frame{}, err
	}
	if f.To, rest, err = readName(rest, to); err != nil {
		return Frame{}, err
	}
	if f.Seq, rest, err = decodeSeq(rest); err != nil {
		return Frame{}, err
	}
	if len(rest) > 0 {
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
	n, err := bodyLength(binary.BigEndian.Uint32(data))
	if err != nil {
		return Frame{}, 0, err
	}
	if len(data)-4 < n {
		return Frame{}, 0, ErrTruncated
	}
	var from, to string
	f, err := decodeBody(data[4:4+n], &from, &to)
	if err != nil {
		return Frame{}, 0, err
	}
	return f, 4 + n, nil
}

// encBufPool recycles encode buffers across WriteFrame and EncodeBody calls.
// Buffers that grew past maxPooledBuf are dropped rather than pinned in the
// pool.
var encBufPool = sync.Pool{
	New: func() any {
		encBufMisses.Add(1)
		b := make([]byte, 0, 4096)
		return &b
	},
}

// Pool accounting: gets counts every buffer acquisition, misses
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
// steady-state writes do not allocate. It returns the bytes written: a
// failed write that wrote none left the stream as it was.
func WriteFrame(w io.Writer, f Frame) (int, error) {
	encBufGets.Add(1)
	bp := encBufPool.Get().(*[]byte)
	buf, err := appendFrame((*bp)[:0], &f)
	if err != nil {
		encBufPool.Put(bp)
		return 0, err
	}
	n, err := w.Write(buf)
	if cap(buf) <= maxPooledBuf {
		*bp = buf[:0]
		encBufPool.Put(bp)
	}
	return n, err
}

// Reader reads the frames of one stream — a connection's inbound half.
// It buffers the stream, so a small frame costs one read of the underlying
// reader rather than two, and it remembers the last From and To it decoded:
// a connection carries one peer's frames, so their names decode without
// allocating. A Reader is for one goroutine.
type Reader struct {
	r        *bufio.Reader
	hdr      [4]byte
	from, to string
}

// NewReader returns a Reader over r.
func NewReader(r io.Reader) *Reader {
	return &Reader{r: bufio.NewReader(r)}
}

// Next reads the next frame into scratch, growing it as needed, and returns
// the (possibly reallocated) scratch for the next call. The frame's Payload
// aliases scratch, so it is valid only until scratch is reused; a caller
// that hands the payload on passes a nil scratch and gets a fresh buffer.
// A stream that ends between frames reports io.EOF, one that ends inside a
// frame ErrTruncated.
func (r *Reader) Next(scratch []byte) (Frame, []byte, error) {
	if _, err := io.ReadFull(r.r, r.hdr[:]); err != nil {
		if errors.Is(err, io.ErrUnexpectedEOF) {
			return Frame{}, scratch, ErrTruncated
		}
		return Frame{}, scratch, err
	}
	n, err := bodyLength(binary.BigEndian.Uint32(r.hdr[:]))
	if err != nil {
		return Frame{}, scratch, err
	}
	if cap(scratch) < n {
		scratch = make([]byte, n)
	}
	body := scratch[:n]
	if _, err := io.ReadFull(r.r, body); err != nil {
		if errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, io.EOF) {
			return Frame{}, scratch, ErrTruncated
		}
		return Frame{}, scratch, err
	}
	f, err := decodeBody(body, &r.from, &r.to)
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
