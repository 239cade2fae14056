// Command wirebench benchmarks the wire codec and the two transport
// fabrics, and writes the results to a JSON file so successive PRs have a
// perf trajectory to compare against (see `make bench`).
//
// Each benchmark is run -count times through testing.Benchmark with
// allocation accounting (the -benchmem quantities); the JSON records every
// sample plus the median, so noise on a shared machine is visible rather
// than hidden.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/transport"
	"repro/internal/wire"
)

type sample struct {
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

type result struct {
	Name    string   `json:"name"`
	Samples []sample `json:"samples"`
	Median  sample   `json:"median"`
}

type report struct {
	GeneratedAt string   `json:"generated_at"`
	GoVersion   string   `json:"go_version"`
	GOOS        string   `json:"goos"`
	GOARCH      string   `json:"goarch"`
	NumCPU      int      `json:"num_cpu"`
	Count       int      `json:"count"`
	Results     []result `json:"results"`
}

func main() {
	count := flag.Int("count", 5, "samples per benchmark")
	out := flag.String("o", "BENCH_wire.json", "output JSON path")
	flag.Parse()

	benches := []struct {
		name string
		fn   func(b *testing.B)
	}{
		{"codec/encode-decode-1KiB", benchEncodeDecode},
		{"codec/encoded-size", benchEncodedSize},
		{"codec/stream-write-read", benchStreamWriteRead},
		{"fabric/netsim-call", benchNetsimCall},
		{"fabric/tcp-roundtrip", benchTCPRoundTrip},
	}

	rep := report{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		NumCPU:      runtime.NumCPU(),
		Count:       *count,
	}
	for _, bm := range benches {
		res := result{Name: bm.name}
		for i := 0; i < *count; i++ {
			r := testing.Benchmark(bm.fn)
			res.Samples = append(res.Samples, sample{
				NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
				BytesPerOp:  r.AllocedBytesPerOp(),
				AllocsPerOp: r.AllocsPerOp(),
			})
		}
		res.Median = median(res.Samples)
		rep.Results = append(rep.Results, res)
		fmt.Printf("%-28s %12.1f ns/op %8d B/op %6d allocs/op  (median of %d)\n",
			bm.name, res.Median.NsPerOp, res.Median.BytesPerOp, res.Median.AllocsPerOp, *count)
	}

	data, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s\n", *out)
}

func median(s []sample) sample {
	sorted := append([]sample(nil), s...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].NsPerOp < sorted[j].NsPerOp })
	return sorted[len(sorted)/2]
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "wirebench:", err)
	os.Exit(1)
}

// testFrame builds the 1 KiB reference frame used by the codec benchmarks.
func testFrame() wire.Frame {
	return wire.Frame{Kind: wire.KindPost, From: "station", To: "device-7", Seq: 42, Payload: make([]byte, 1024)}
}

func benchEncodeDecode(b *testing.B) {
	f := testFrame()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		data, err := wire.Encode(f)
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := wire.Decode(data); err != nil {
			b.Fatal(err)
		}
	}
}

func benchEncodedSize(b *testing.B) {
	f := testFrame()
	b.ReportAllocs()
	var total int
	for i := 0; i < b.N; i++ {
		total += f.EncodedSize()
	}
	if total == 0 {
		b.Fatal("size must be positive")
	}
}

func benchStreamWriteRead(b *testing.B) {
	f := testFrame()
	var buf bytes.Buffer
	var scratch []byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := wire.WriteFrame(&buf, f); err != nil {
			b.Fatal(err)
		}
		var err error
		if _, scratch, err = wire.ReadFrameReuse(&buf, scratch); err != nil {
			b.Fatal(err)
		}
	}
}

func benchNetsimCall(b *testing.B) {
	net := netsim.New(netsim.Config{})
	if _, err := net.Attach("srv", func(from string, f wire.Frame) (wire.Frame, error) {
		return wire.Frame{Kind: wire.KindPostConfirm, From: f.To, To: f.From, Payload: []byte{1}}, nil
	}); err != nil {
		b.Fatal(err)
	}
	client, err := net.Attach("cli", func(string, wire.Frame) (wire.Frame, error) {
		return wire.Frame{}, nil
	})
	if err != nil {
		b.Fatal(err)
	}
	req := wire.Frame{Kind: wire.KindPost, Payload: []byte{7}}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := client.Call(ctx, "srv", req); err != nil {
			b.Fatal(err)
		}
	}
}

func benchTCPRoundTrip(b *testing.B) {
	fabric := transport.NewTCPFabric()
	srv, err := fabric.Attach("127.0.0.1:0", func(from string, f wire.Frame) (wire.Frame, error) {
		return wire.Frame{Kind: wire.KindPostConfirm, From: f.To, To: f.From, Payload: []byte{1}}, nil
	})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	cli, err := fabric.Attach("127.0.0.1:0", func(string, wire.Frame) (wire.Frame, error) {
		return wire.Frame{}, nil
	})
	if err != nil {
		b.Fatal(err)
	}
	defer cli.Close()
	req := wire.Frame{Kind: wire.KindPost, Payload: []byte{7}}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cli.Call(ctx, srv.Addr(), req); err != nil {
			b.Fatal(err)
		}
	}
}
