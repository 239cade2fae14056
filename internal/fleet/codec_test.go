package fleet

import (
	"bytes"
	"encoding/gob"
	"errors"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/server"
	"repro/internal/wire"
)

func testEvent(i int) Event {
	return Event{
		Seq:     uint64(i),
		Node:    "dock1",
		Kind:    EventSpan,
		Naplet:  "naplet-7@home",
		Hop:     i,
		From:    "s1",
		To:      "s2",
		At:      time.Unix(1700000000+int64(i), 123456789).UTC(),
		Outcome: "ok",
		Detail:  "detail",
		Bytes:   4096 + i,
		Elapsed: time.Duration(i) * time.Millisecond,
	}
}

func TestEventCodecRoundTrip(t *testing.T) {
	for _, ev := range []Event{testEvent(3), {}, {Kind: server.EventTrap, Detail: "boom: division by zero"}} {
		buf := appendEvent(nil, ev)
		got, rest, err := decodeEvent(buf)
		if err != nil {
			t.Fatal(err)
		}
		if len(rest) != 0 {
			t.Fatalf("%d trailing bytes", len(rest))
		}
		if !got.At.Equal(ev.At) {
			t.Fatalf("At = %v, want %v", got.At, ev.At)
		}
		got.At, ev.At = time.Time{}, time.Time{}
		if !reflect.DeepEqual(got, ev) {
			t.Fatalf("round trip:\n got %+v\nwant %+v", got, ev)
		}
	}
}

func TestMinEventSize(t *testing.T) {
	// The DecCount allocation guard must never exceed a real empty
	// event's wire size, or valid batches would be rejected.
	empty := Event{}
	if got := len(appendEvent(nil, empty)); got < minEventSize {
		t.Fatalf("empty event encodes to %d bytes < minEventSize %d", got, minEventSize)
	}
}

func TestFleetBodyCodecRoundTrips(t *testing.T) {
	cases := []struct {
		name string
		in   interface {
			wire.BinaryBody
			Decode([]byte) error
		}
		out interface{ Decode([]byte) error }
	}{
		{"register", &RegisterBody{Node: "dock1:7001", MetricsAddr: ":8081", Labels: []string{"rack=a", "zone=1"}}, &RegisterBody{}},
		{"register/empty", &RegisterBody{Node: "d"}, &RegisterBody{}},
		{"registerReply", &RegisterReplyBody{OK: true, HeartbeatEvery: 1500 * time.Millisecond}, &RegisterReplyBody{}},
		{"registerReply/err", &RegisterReplyBody{Err: "full"}, &RegisterReplyBody{}},
		{"heartbeat", &HeartbeatBody{Node: "dock1", Seq: 42, Residents: 3, DiskUsedBytes: 1 << 30, Draining: true}, &HeartbeatBody{}},
		{"heartbeatReply", &HeartbeatReplyBody{OK: true, Throttle: true}, &HeartbeatReplyBody{}},
		{"heartbeatReply/unknown", &HeartbeatReplyBody{Err: `fleet: unknown node "d"`}, &HeartbeatReplyBody{}},
		{"events", &EventBatchBody{Node: "dock2", Events: []Event{testEvent(1), testEvent(2), {}}}, &EventBatchBody{}},
		{"events/empty", &EventBatchBody{Node: "dock2"}, &EventBatchBody{}},
		{"eventAck", &EventAckBody{OK: true, Throttle: true}, &EventAckBody{}},
		{"subscribe", &SubscribeBody{ID: "sub-9", Buf: 2048, Max: 128}, &SubscribeBody{}},
		{"subscribe/create", &SubscribeBody{}, &SubscribeBody{}},
		{"subscribeReply", &SubscribeReplyBody{ID: "sub-9", Events: []Event{testEvent(5)}, Dropped: 17, Closed: true, Err: "x"}, &SubscribeReplyBody{}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			buf := tc.in.AppendBinary(nil)
			if err := tc.out.Decode(buf); err != nil {
				t.Fatal(err)
			}
			if !equalIgnoringTime(tc.out, tc.in) {
				t.Fatalf("round trip:\n got %+v\nwant %+v", tc.out, tc.in)
			}
		})
	}
}

// equalIgnoringTime compares two body values, comparing time fields with
// Equal (binary codecs round-trip wall-clock time, not monotonic or
// location identity).
func equalIgnoringTime(a, b any) bool {
	ja, jb := normalizeTimes(a), normalizeTimes(b)
	return reflect.DeepEqual(ja, jb)
}

func normalizeTimes(v any) any {
	switch b := v.(type) {
	case *EventBatchBody:
		cp := *b
		cp.Events = normalizeEvents(b.Events)
		return cp
	case *SubscribeReplyBody:
		cp := *b
		cp.Events = normalizeEvents(b.Events)
		return cp
	default:
		return reflect.ValueOf(v).Elem().Interface()
	}
}

func normalizeEvents(evs []Event) []Event {
	out := make([]Event, len(evs))
	for i, ev := range evs {
		ev.At = ev.At.Round(0).UTC()
		out[i] = ev
	}
	return out
}

// body is what every dock-sent fleet body offers its frame.
type body interface {
	wire.BinaryBody
	Decode([]byte) error
}

// codecBodies pairs a representative value of every body a socket feeds
// this package with a constructor of its zero value.
func codecBodies() (samples []body, zero []func() body) {
	samples = []body{
		&RegisterBody{Node: "dock1:7001", MetricsAddr: ":8081", Labels: []string{"rack=a", "zone=1"}},
		&RegisterReplyBody{OK: true, Err: "full", HeartbeatEvery: 1500 * time.Millisecond},
		&HeartbeatBody{Node: "dock1", Seq: 42, Residents: 3, DiskUsedBytes: 1 << 30, Draining: true},
		&HeartbeatReplyBody{OK: true, Err: "unknown node", Throttle: true},
		&EventBatchBody{Node: "dock2", Events: []Event{testEvent(1), testEvent(2), {}}},
		&EventAckBody{OK: true, Throttle: true},
		&SubscribeBody{ID: "sub-9", Buf: 2048, Max: 128},
		&SubscribeReplyBody{ID: "sub-9", Events: []Event{testEvent(5)}, Dropped: 17, Closed: true, Err: "x"},
	}
	zero = []func() body{
		func() body { return new(RegisterBody) },
		func() body { return new(RegisterReplyBody) },
		func() body { return new(HeartbeatBody) },
		func() body { return new(HeartbeatReplyBody) },
		func() body { return new(EventBatchBody) },
		func() body { return new(EventAckBody) },
		func() body { return new(SubscribeBody) },
		func() body { return new(SubscribeReplyBody) },
	}
	return samples, zero
}

// TestFleetBodiesRejectOldFormats: a payload whose first byte is not the
// body version — version 0, version 2, a gob stream, nothing — is
// wire.ErrMalformed and leaves the body untouched; there is no second
// parser to hand it to.
func TestFleetBodiesRejectOldFormats(t *testing.T) {
	var gobbed bytes.Buffer
	if err := gob.NewEncoder(&gobbed).Encode(HeartbeatBody{Node: "old-dock", Seq: 7, Residents: 1}); err != nil {
		t.Fatal(err)
	}
	samples, zero := codecBodies()
	for i, sample := range samples {
		good := sample.AppendBinary(nil)
		for name, payload := range map[string][]byte{
			"version 0": append([]byte{0}, good[1:]...),
			"version 2": append([]byte{2}, good[1:]...),
			"gob":       gobbed.Bytes(),
			"empty":     nil,
		} {
			got := zero[i]()
			if err := got.Decode(payload); !errors.Is(err, wire.ErrMalformed) {
				t.Errorf("%T, %s: Decode error = %v, want wire.ErrMalformed", sample, name, err)
			}
			if !reflect.DeepEqual(got, zero[i]()) {
				t.Errorf("%T, %s: rejected payload left a partial result %+v", sample, name, got)
			}
		}
	}
}

// FuzzDecodeBodies feeds arbitrary bytes to every body decoder: no panic,
// allocation bounded by the input length, and whatever decodes re-encodes
// and decodes again to an equal value.
func FuzzDecodeBodies(f *testing.F) {
	samples, zero := codecBodies()
	for i, sample := range samples {
		enc := sample.AppendBinary(nil)
		f.Add(uint8(i), enc)
		f.Add(uint8(i), enc[:len(enc)/2])
	}
	f.Add(uint8(4), []byte{1, 0, 0xff, 0xff, 0xff, 0xff, 0x0f})
	f.Fuzz(func(t *testing.T, which uint8, data []byte) {
		mk := zero[int(which)%len(zero)]
		got := mk()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := got.Decode(data)
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > uint64(64*len(data)+1<<18) {
			t.Fatalf("%T: decoding %d bytes allocated %d", got, len(data), grew)
		}
		if err != nil {
			return
		}
		enc := got.AppendBinary(nil)
		again := mk()
		if err := again.Decode(enc); err != nil {
			t.Fatalf("%T: re-decode of an accepted body: %v", got, err)
		}
		if !reflect.DeepEqual(got, again) {
			t.Fatalf("%T: re-decoded value differs:\n got %+v\nwant %+v", got, again, got)
		}
	})
}

func TestEventBatchDecodeRejectsHostileCount(t *testing.T) {
	// A forged huge count must fail before allocation, not OOM.
	b := []byte{bodyCodecVersion}
	b = wire.AppendString(b, "evil")
	b = wire.AppendUvarint(b, 1<<40)
	var out EventBatchBody
	if err := out.Decode(b); err == nil {
		t.Fatal("hostile count accepted")
	}
}

// TestWaveReplyKeepsResultBytes: a report body need not be UTF-8, and the
// JSON wave reply carries it byte for byte.
func TestWaveReplyKeepsResultBytes(t *testing.T) {
	body := []byte{0xff, 0x00}
	f, err := wire.NewFrame(wire.KindFleetReply, "m", "ctl", WaveReplyBody{
		OK:     true,
		Result: &WaveResult{Total: 1, Launches: []Launch{{Status: "completed", Result: body}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	var rb WaveReplyBody
	if err := f.Body(&rb); err != nil {
		t.Fatal(err)
	}
	if got := rb.Result.Launches[0].Result; !bytes.Equal(got, body) {
		t.Fatalf("result = %x, want %x", got, body)
	}
}
