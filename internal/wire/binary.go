// Binary field primitives shared by the hand-rolled payload codecs: naplet
// records, state values, mail, protocol bodies, error replies and dock
// snapshots. The building blocks mirror the frame header's conventions —
// uvarint length prefixes, no reflection — so every codec in the system
// speaks one dialect and DESIGN.md §11 documents it once. A type's codec is
// two functions, an append and a decode; nothing computes a size ahead of
// the bytes (EncodeBody).
//
// Encoding conventions:
//
//	string / []byte   [uvarint length] [bytes]
//	bool              one byte, 0 or 1
//	uvarint           binary.AppendUvarint
//	varint (signed)   zigzag, binary.AppendVarint
//	time.Time         [flag byte: 0 = zero time] or
//	                  [1] [varint unix seconds] [uvarint nanoseconds]
//	sequence          [uvarint n] n×element — see AppendSeq
//	map               [uvarint n] n×([byte shared] [string suffix] element),
//	                  keys ascending and front-coded — see AppendMap
//
// A protocol body leads with one version byte (DecVersion); a payload
// whose first byte is anything else is malformed, never handed to a
// second parser.
//
// Every value has exactly one encoding, and the decoders accept no other:
// varints in their shortest form, bools 0 or 1, the zero time only as its
// flag, map keys strictly ascending and sharing all they can. What a
// decoder accepts therefore re-encodes to the bytes it was given, which is
// what the fuzz targets assert.
//
// The explicit zero flag matters because the zero time.Time is year 1, far
// outside the varint-friendly Unix range, and IsZero must survive a round
// trip (zero creation times and open departure hops carry meaning).
// Decoded times are UTC with second/nanosecond fidelity; time.Time.Equal
// holds across a round trip, monotonic readings and locations do not
// travel.
//
// Decoders consume from the front of a slice and return the rest, like the
// frame header's readString. DecBytes aliases the input; callers that
// retain the slice beyond the input's lifetime must copy (domain codecs
// that store payloads do).
package wire

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
	"time"
)

// AppendString appends a uvarint-length-prefixed string.
func AppendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// AppendBytes appends a uvarint-length-prefixed byte slice. nil and empty
// encode identically (length 0).
func AppendBytes(dst []byte, b []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

// AppendBool appends one byte: 1 for true, 0 for false.
func AppendBool(dst []byte, v bool) []byte {
	if v {
		return append(dst, 1)
	}
	return append(dst, 0)
}

// AppendUvarint appends an unsigned varint.
func AppendUvarint(dst []byte, x uint64) []byte {
	return binary.AppendUvarint(dst, x)
}

// AppendVarint appends a zigzag-encoded signed varint.
func AppendVarint(dst []byte, x int64) []byte {
	return binary.AppendVarint(dst, x)
}

// AppendTime appends a time with an explicit zero flag (see package
// comment for the layout).
func AppendTime(dst []byte, t time.Time) []byte {
	if t.IsZero() {
		return append(dst, 0)
	}
	dst = append(dst, 1)
	dst = binary.AppendVarint(dst, t.Unix())
	return binary.AppendUvarint(dst, uint64(t.Nanosecond()))
}

// DecVersion consumes the version byte that leads a binary body and
// rejects any other value: each body has exactly one parse path.
func DecVersion(payload []byte, want byte) ([]byte, error) {
	if len(payload) == 0 || payload[0] != want {
		return nil, fmt.Errorf("%w: body does not start with version byte %d", ErrMalformed, want)
	}
	return payload[1:], nil
}

// DecString consumes one length-prefixed string. The returned string is a
// copy.
func DecString(b []byte) (string, []byte, error) {
	return readString(b)
}

// DecBytes consumes one length-prefixed byte slice. The result aliases b;
// zero length decodes to nil.
func DecBytes(b []byte) ([]byte, []byte, error) {
	n, sz := binary.Uvarint(b)
	if sz <= 0 || sz > 1 && b[sz-1] == 0 || n > uint64(len(b)-sz) { // shortest form only: see DecUvarint
		return nil, nil, ErrMalformed
	}
	if n == 0 {
		return nil, b[sz:], nil
	}
	return b[sz : sz+int(n)], b[sz+int(n):], nil
}

// DecBool consumes one boolean byte. Bytes other than 0 and 1 are
// malformed, keeping the encoding canonical for golden-byte tests.
func DecBool(b []byte) (bool, []byte, error) {
	if len(b) == 0 || b[0] > 1 {
		return false, nil, ErrMalformed
	}
	return b[0] == 1, b[1:], nil
}

// DecUvarint consumes one unsigned varint. Only the shortest form — the
// one AppendUvarint emits — is accepted, so that every value has exactly
// one encoding; a longer form ends in a zero byte that adds nothing.
func DecUvarint(b []byte) (uint64, []byte, error) {
	x, sz := binary.Uvarint(b)
	if sz <= 0 || sz > 1 && b[sz-1] == 0 {
		return 0, nil, ErrMalformed
	}
	return x, b[sz:], nil
}

// DecVarint consumes one zigzag-encoded signed varint.
func DecVarint(b []byte) (int64, []byte, error) {
	ux, b, err := DecUvarint(b)
	x := int64(ux >> 1)
	if ux&1 != 0 {
		x = ^x
	}
	return x, b, err
}

// DecTime consumes one flagged time. Non-zero times decode as UTC.
func DecTime(b []byte) (time.Time, []byte, error) {
	if len(b) == 0 || b[0] > 1 {
		return time.Time{}, nil, ErrMalformed
	}
	if b[0] == 0 {
		return time.Time{}, b[1:], nil
	}
	sec, rest, err := DecVarint(b[1:])
	if err != nil {
		return time.Time{}, nil, err
	}
	nsec, rest, err := DecUvarint(rest)
	if err != nil {
		return time.Time{}, nil, err
	}
	t := time.Unix(sec, int64(nsec)).UTC()
	if nsec >= 1e9 || t.IsZero() { // the zero time travels as its flag alone
		return time.Time{}, nil, ErrMalformed
	}
	return t, rest, nil
}

// DecCount consumes an element count that prefixes a sequence, rejecting
// counts that could not possibly fit in the remaining input (each element
// occupies at least minElemSize ≥ 1 encoded bytes). This bounds decoder
// allocations by the input length, which is what keeps the fuzz targets
// safe against hostile counts.
func DecCount(b []byte, minElemSize int) (int, []byte, error) {
	n, rest, err := DecUvarint(b)
	if err != nil {
		return 0, nil, err
	}
	if minElemSize < 1 {
		minElemSize = 1
	}
	if n > uint64(len(rest)/minElemSize) {
		return 0, nil, ErrMalformed
	}
	return int(n), rest, nil
}

// A sequence is a uvarint count, then the elements, whatever the element
// codec: the element functions are the primitives above or a domain
// codec's own. A string-keyed map is a count, then its entries in ascending
// key order — equal values encode to equal bytes — each key front-coded
// against the one before it: [byte shared] [string suffix], the key being
// the previous key's first shared bytes followed by suffix. Keys of one map
// tend to repeat their start ("DeviceStatus/dev12", an OID's first ten
// arcs), and that start was most of what a state-heavy record weighed.

// AppendSeq appends a count-prefixed sequence.
func AppendSeq[T any](dst []byte, xs []T, elem func([]byte, T) []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(xs)))
	for _, x := range xs {
		dst = elem(dst, x)
	}
	return dst
}

// maxSharedPrefix clamps how much of its predecessor a map key may reuse.
// Front coding amplifies: one long key, then many entries of a few bytes that
// each "share" all of it, would decode to far more memory than they
// occupy. With the clamp a decoded key is at most this much longer than
// its own bytes on the wire, which keeps decoder allocation proportional
// to input (the fuzz targets' bound). 64 covers every key in the tree.
const maxSharedPrefix = 64

// sharedPrefix returns how many leading bytes of k the encoder takes from
// prev: all they have in common, up to the clamp.
func sharedPrefix[K ~string | ~[]byte](prev, k K) int {
	n := min(len(prev), len(k), maxSharedPrefix)
	for i := 0; i < n; i++ {
		if prev[i] != k[i] {
			return i
		}
	}
	return n
}

// smallMapKeys is how many keys AppendMap sorts on the stack; a larger
// map's key list is heap-allocated.
const smallMapKeys = 32

// sortedKeys returns m's keys in ascending order, in buf if they fit.
func sortedKeys[T any](m map[string]T, buf []string) []string {
	if len(m) > cap(buf) {
		buf = make([]string, 0, len(m))
	}
	for k := range m {
		buf = append(buf, k)
	}
	slices.Sort(buf)
	return buf
}

// AppendMap appends a count-prefixed map, keys ascending and front-coded.
func AppendMap[T any](dst []byte, m map[string]T, elem func([]byte, T) []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(m)))
	var stack [smallMapKeys]string
	prev := ""
	for _, k := range sortedKeys(m, stack[:0]) {
		dst = elem(AppendMapKey(dst, prev, k), m[k])
		prev = k
	}
	return dst
}

// AppendMapKey appends key front-coded against prev, the key before it, as
// AppendMap codes each key: for a caller that writes a map's entries in
// key order itself.
func AppendMapKey[K ~string | ~[]byte](dst []byte, prev, key K) []byte {
	shared := sharedPrefix(prev, key)
	dst = binary.AppendUvarint(append(dst, byte(shared)), uint64(len(key)-shared))
	return append(dst, key[shared:]...)
}

// maxPrealloc bounds what DecSeq and DecMap reserve on the strength of a
// count alone; a longer container grows as its elements actually decode.
// DecCount already ties a count to the input length, but containers nest.
const maxPrealloc = 1024

// DecSeq consumes one count-prefixed sequence whose elements each occupy at
// least minElemSize bytes. An empty sequence decodes to nil.
func DecSeq[T any](b []byte, minElemSize int, elem func([]byte) (T, []byte, error)) ([]T, []byte, error) {
	n, b, err := DecCount(b, minElemSize)
	if err != nil || n == 0 {
		return nil, b, err
	}
	xs := make([]T, 0, min(n, maxPrealloc))
	for i := 0; i < n; i++ {
		var x T
		if x, b, err = elem(b); err != nil {
			return nil, nil, err
		}
		xs = append(xs, x)
	}
	return xs, b, nil
}

// MapKeys follows the keys of one encoded map without building them: it
// holds the current key as the first bytes it shares with its predecessor,
// kept in an array, and its suffix, a view into the input. Next checks each
// key against the one before it exactly as DecMap does — DecMap reads its
// keys through it — so a section that stays encoded is checked by the same
// rules, with no allocation, and a key costs a string only when one is
// wanted (String).
type MapKeys struct {
	head   [maxSharedPrefix]byte // the key's first bytes, up to the clamp
	shared int                   // how many of them it took from its predecessor
	suffix []byte                // the rest of the key, aliasing the input
	read   int                   // keys consumed so far
}

// Next consumes one front-coded key from b and returns the rest. A key that
// shares more than its predecessor has or the clamp allows, less than it
// could, or that does not sort after its predecessor is malformed: the last
// rule also makes a duplicate key an error, not a silent overwrite.
func (k *MapKeys) Next(b []byte) ([]byte, error) {
	if len(b) == 0 || int(b[0]) > min(k.shared+len(k.suffix), maxSharedPrefix) {
		return nil, ErrMalformed
	}
	shared := int(b[0])
	suffix, b, err := DecBytes(b[1:])
	if err != nil {
		return nil, err
	}
	// The predecessor's bytes past the shared ones, in two pieces: what is
	// left of its head, then its suffix.
	var lead, tail []byte
	if shared < k.shared {
		lead, tail = k.head[shared:k.shared], k.suffix
	} else {
		tail = k.suffix[shared-k.shared:]
	}
	first := lead
	if len(first) == 0 {
		first = tail
	}
	if shared < maxSharedPrefix && len(first) > 0 && len(suffix) > 0 && first[0] == suffix[0] {
		return nil, ErrMalformed
	}
	if k.read > 0 && compareJoined(suffix, lead, tail) <= 0 {
		return nil, ErrMalformed
	}
	copy(k.head[shared:], suffix)
	k.shared, k.suffix = shared, suffix
	k.read++
	return b, nil
}

// compareJoined compares x with the concatenation of a and b.
func compareJoined(x, a, b []byte) int {
	n := min(len(x), len(a))
	if c := bytes.Compare(x[:n], a[:n]); c != 0 || n < len(a) {
		if c == 0 {
			return -1 // x is a proper prefix of a
		}
		return c
	}
	return bytes.Compare(x[n:], b)
}

// Is reports whether the current key is s.
func (k *MapKeys) Is(s string) bool {
	return len(s) == k.shared+len(k.suffix) && string(k.head[:k.shared]) == s[:k.shared] && string(k.suffix) == s[k.shared:]
}

// String returns the current key. It is assembled on the stack, so a key
// costs the one allocation its string needs (longer keys spill to the heap).
func (k *MapKeys) String() string {
	var scratch [2 * maxSharedPrefix]byte
	return string(k.Append(scratch[:0]))
}

// Append appends the current key to dst.
func (k *MapKeys) Append(dst []byte) []byte {
	return append(append(dst, k.head[:k.shared]...), k.suffix...)
}

// DecMap consumes one count-prefixed map. An empty map decodes to a
// non-nil empty map.
func DecMap[T any](b []byte, elem func([]byte) (T, []byte, error)) (map[string]T, []byte, error) {
	n, b, err := DecCount(b, 3) // shared, suffix length, one element byte
	if err != nil {
		return nil, nil, err
	}
	m := make(map[string]T, min(n, maxPrealloc))
	var keys MapKeys
	for i := 0; i < n; i++ {
		if b, err = keys.Next(b); err != nil {
			return nil, nil, err
		}
		if m[keys.String()], b, err = elem(b); err != nil {
			return nil, nil, err
		}
	}
	return m, b, nil
}

// AppendStrings appends a count-prefixed string list.
func AppendStrings(dst []byte, ss []string) []byte { return AppendSeq(dst, ss, AppendString) }

// DecStrings consumes one count-prefixed string list.
func DecStrings(b []byte) ([]string, []byte, error) { return DecSeq(b, 1, readString) }

// AppendStringMap appends a count-prefixed string map.
func AppendStringMap(dst []byte, m map[string]string) []byte { return AppendMap(dst, m, AppendString) }

// AppendStringPairs appends the string map whose entries are pairs, which
// are sorted by key with no key twice: the bytes AppendStringMap writes for
// that map.
func AppendStringPairs(dst []byte, pairs [][2]string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(pairs)))
	prev := ""
	for _, p := range pairs {
		dst = AppendString(AppendMapKey(dst, prev, p[0]), p[1])
		prev = p[0]
	}
	return dst
}

// DecStringMap consumes one count-prefixed string map.
func DecStringMap(b []byte) (map[string]string, []byte, error) { return DecMap(b, readString) }

// BinaryBody is a payload body with a hand-rolled binary codec: everything
// a frame needs to carry it without reflection.
type BinaryBody interface {
	// AppendBinary appends the encoded form to dst and returns it.
	AppendBinary(dst []byte) []byte
}

// EncodeBody returns body's encoding in a slice of exactly its length: one
// AppendBinary walk into scratch from the WriteFrame pool, then one
// allocation for the copy. The copy is made before the scratch goes back,
// so the result never aliases pooled memory; scratch a large body grew past
// maxPooledBuf is dropped, as in WriteFrame.
func EncodeBody(body BinaryBody) []byte {
	encBufGets.Add(1)
	bp := encBufPool.Get().(*[]byte)
	buf := body.AppendBinary((*bp)[:0])
	out := make([]byte, len(buf))
	copy(out, buf)
	if cap(buf) <= maxPooledBuf {
		*bp = buf[:0]
		encBufPool.Put(bp)
	}
	return out
}

// BinaryFrame builds a frame around a binary-codec body; the payload is
// EncodeBody's one allocation. Everything a dock, device or station sends
// on its own is built here; NewFrame is for the operator-plane bodies only.
func BinaryFrame(kind Kind, from, to string, body BinaryBody) Frame {
	return Frame{Kind: kind, From: from, To: to, Payload: EncodeBody(body)}
}
