// Command napletctl manages naplets in a running naplet space from the
// command line: it launches agents on itineraries written in the paper's
// operator notation, queries their status, fetches their reports, and
// casts control messages (callback / suspend / resume / terminate).
//
// Usage:
//
//	napletctl -home <addr> launch -codebase <name> -route "seq(a,b)" [-owner u] [-params p1;p2] [-wait]
//	napletctl -home <addr> status  -id <naplet-id>
//	napletctl -home <addr> results -id <naplet-id>
//	napletctl -home <addr> control -id <naplet-id> -verb terminate
//	napletctl -master <addr> fleet {nodes|wave|watch} [flags]
//	napletctl metrics <metrics-addr>[,<metrics-addr>...]
//	napletctl overload <metrics-addr>
//	napletctl spans <metrics-addr> [naplet-id]
//
// The home address is the napletd that launched (or will launch) the
// naplet. The metrics and spans subcommands talk to a napletd's telemetry
// endpoint (its -metrics-addr) instead of the naplet protocol port.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	neturl "net/url"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/id"
	"repro/internal/locator"
	"repro/internal/man"
	"repro/internal/naplet"
	"repro/internal/server"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/transport"
	"repro/internal/wire"
)

func main() {
	home := flag.String("home", "127.0.0.1:7001", "home naplet server address")
	master := flag.String("master", "127.0.0.1:7100", "napletmaster address (fleet subcommands)")
	flag.Parse()
	args := flag.Args()
	if len(args) < 1 {
		usage()
	}
	cmd, rest := args[0], args[1:]

	// The metrics and spans subcommands are pure HTTP; they need no
	// fabric node.
	if cmd == "metrics" {
		if len(rest) != 1 {
			fmt.Fprintln(os.Stderr, "usage: napletctl metrics <metrics-addr>[,<metrics-addr>...]")
			os.Exit(2)
		}
		metrics(rest[0])
		return
	}
	if cmd == "overload" {
		if len(rest) != 1 {
			fmt.Fprintln(os.Stderr, "usage: napletctl overload <metrics-addr>")
			os.Exit(2)
		}
		overloadCmd(rest[0])
		return
	}
	if cmd == "spans" {
		if len(rest) < 1 || len(rest) > 2 {
			fmt.Fprintln(os.Stderr, "usage: napletctl spans <metrics-addr> [naplet-id]")
			os.Exit(2)
		}
		nid := ""
		if len(rest) == 2 {
			nid = rest[1]
		}
		spans(rest[0], nid)
		return
	}

	// loadgen builds its own fabric and testbed per run.
	if cmd == "loadgen" {
		loadgenCmd(rest)
		return
	}

	fabric := transport.NewTCPFabric()
	node, err := fabric.Attach("127.0.0.1:0", func(string, wire.Frame) (wire.Frame, error) {
		return wire.Frame{}, fmt.Errorf("napletctl serves no requests")
	})
	if err != nil {
		log.Fatal(err)
	}
	defer node.Close()

	switch cmd {
	case "launch":
		launch(node, *home, rest)
	case "status":
		simpleOp(node, *home, "status", rest)
	case "results":
		simpleOp(node, *home, "results", rest)
	case "control":
		control(node, *home, rest)
	case "locate":
		locate(node, *home, rest)
	case "footprints":
		footprints(node, *home)
	case "fleet":
		fleetCmd(node, *master, rest)
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: napletctl -home <addr> {launch|status|results|control|locate|footprints} [flags]")
	fmt.Fprintln(os.Stderr, "       napletctl -master <addr> fleet {nodes|wave|watch} [flags]")
	fmt.Fprintln(os.Stderr, "       napletctl metrics <metrics-addr>[,<metrics-addr>...]")
	fmt.Fprintln(os.Stderr, "       napletctl overload <metrics-addr>")
	fmt.Fprintln(os.Stderr, "       napletctl spans <metrics-addr> [naplet-id]")
	fmt.Fprintln(os.Stderr, "       napletctl loadgen [-profile short|mixed|man-sweep|overload] [-fabric netsim-wan|tcp|both] [-loadgen.seed N] [-faults]")
	os.Exit(2)
}

// sample is one parsed Prometheus text-format line.
type sample struct {
	name   string // series name including labels, e.g. `foo{kind="post"}`
	family string // bare metric name
	value  float64
}

// metrics accepts one telemetry address or a comma-separated list. A
// single address keeps the classic single-node output; a list fetches
// every node and prints the same tables prefixed per node, so one
// invocation surveys a whole fleet.
func metrics(addrList string) {
	var addrs []string
	for _, a := range strings.Split(addrList, ",") {
		if a = strings.TrimSpace(a); a != "" {
			addrs = append(addrs, a)
		}
	}
	if len(addrs) == 0 {
		log.Fatal("napletctl metrics: no address given")
	}
	if len(addrs) == 1 {
		metricsOne(addrs[0], "")
		return
	}
	for _, a := range addrs {
		metricsOne(a, a+" ")
	}
}

// metricsOne fetches a napletd telemetry endpoint and pretty-prints the
// naplet-relevant families, grouped by component, with a few derived
// figures (cache hit ratio, mean latencies). A non-empty prefix tags
// every table title and derived line with the node it came from.
func metricsOne(addr, prefix string) {
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	client := &http.Client{Timeout: 10 * time.Second}
	resp, err := client.Get(addr + "/metrics")
	if err != nil {
		log.Fatalf("napletctl metrics: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		log.Fatalf("napletctl metrics: %s returned %s", addr, resp.Status)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		log.Fatalf("napletctl metrics: read: %v", err)
	}

	samples := parsePrometheus(string(body))
	byComponent := make(map[string][]sample)
	values := make(map[string]float64)
	for _, s := range samples {
		values[s.name] = s.value
		if !strings.HasPrefix(s.family, "naplet_") {
			continue
		}
		// Histogram buckets would swamp the table; keep _sum/_count so
		// means stay derivable.
		if strings.HasSuffix(s.family, "_bucket") {
			continue
		}
		parts := strings.SplitN(s.family, "_", 3)
		if len(parts) < 3 {
			continue
		}
		byComponent[parts[1]] = append(byComponent[parts[1]], s)
	}

	components := make([]string, 0, len(byComponent))
	for c := range byComponent {
		components = append(components, c)
	}
	sort.Strings(components)
	for _, c := range components {
		rows := byComponent[c]
		sort.Slice(rows, func(i, j int) bool { return rows[i].name < rows[j].name })
		tbl := stats.NewTable(prefix+c, "value")
		for _, s := range rows {
			tbl.AddRow(strings.TrimPrefix(s.name, "naplet_"+c+"_"), formatMetric(s.value))
		}
		fmt.Print(tbl.String())
		fmt.Println()
	}

	// Derived figures the raw families only imply.
	if lookups := values["naplet_locator_lookups_total"]; lookups > 0 {
		hits := values["naplet_locator_cache_hits_total"]
		fmt.Printf("%slocator cache hit ratio: %.1f%%\n", prefix, 100*hits/lookups)
	}
	printMean(values, "naplet_messenger_confirm_rtt_seconds", prefix+"mean confirm RTT")
	printMean(values, "naplet_navigator_hop_latency_seconds", prefix+"mean hop latency")
}

// spans fetches a napletd telemetry endpoint's migration-span ring and
// pretty-prints it grouped by naplet, one table per journey, matching the
// metrics subcommand's formatting. A naplet ID narrows the fetch to one
// journey server-side.
func spans(addr, nid string) {
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	url := addr + "/spans"
	if nid != "" {
		url += "?naplet=" + neturl.QueryEscape(nid)
	}
	client := &http.Client{Timeout: 10 * time.Second}
	resp, err := client.Get(url)
	if err != nil {
		log.Fatalf("napletctl spans: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		log.Fatalf("napletctl spans: %s returned %s", addr, resp.Status)
	}
	var all []telemetry.HopSpan
	if err := json.NewDecoder(resp.Body).Decode(&all); err != nil {
		log.Fatalf("napletctl spans: decode: %v", err)
	}
	if len(all) == 0 {
		fmt.Println("no spans")
		return
	}

	byNaplet := make(map[string][]telemetry.HopSpan)
	for _, s := range all {
		byNaplet[s.Naplet] = append(byNaplet[s.Naplet], s)
	}
	naplets := make([]string, 0, len(byNaplet))
	for n := range byNaplet {
		naplets = append(naplets, n)
	}
	sort.Strings(naplets)
	for _, n := range naplets {
		rows := byNaplet[n]
		sort.Slice(rows, func(i, j int) bool {
			if rows[i].Hop != rows[j].Hop {
				return rows[i].Hop < rows[j].Hop
			}
			return rows[i].Start.Before(rows[j].Start)
		})
		tbl := stats.NewTable(n, "hop", "outcome", "total", "negotiate", "transfer", "bytes")
		for _, s := range rows {
			outcome := s.Outcome
			if s.Err != "" {
				outcome += " (" + s.Err + ")"
			}
			tbl.AddRow(fmt.Sprintf("%s -> %s", s.From, s.To), s.Hop, outcome,
				s.Total, s.Negotiation, s.Transfer, s.RecordBytes+s.CodeBytes)
		}
		fmt.Print(tbl.String())
		fmt.Println()
	}
}

// printMean derives a mean from a histogram's _sum/_count pair.
func printMean(values map[string]float64, family, label string) {
	count := values[family+"_count"]
	if count <= 0 {
		return
	}
	mean := time.Duration(values[family+"_sum"] / count * float64(time.Second))
	fmt.Printf("%s: %s over %.0f samples\n", label, mean, count)
}

// parsePrometheus extracts samples from text exposition format 0.0.4.
func parsePrometheus(text string) []sample {
	var out []sample
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		name := line[:i]
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		family := name
		if j := strings.IndexByte(family, '{'); j >= 0 {
			family = family[:j]
		}
		out = append(out, sample{name: name, family: family, value: v})
	}
	return out
}

// formatMetric renders integral counters without decimals and everything
// else with sensible precision.
func formatMetric(v float64) string {
	if v == float64(int64(v)) {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', 6, 64)
}

// call performs one management exchange with the home server.
func call(node transport.Node, home string, body server.ControlBody) server.ControlReplyBody {
	f, err := wire.NewFrame(wire.KindControl, "", "", &body)
	if err != nil {
		log.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	reply, err := node.Call(ctx, home, f)
	if err != nil {
		log.Fatalf("napletctl: %v", err)
	}
	var rb server.ControlReplyBody
	if err := reply.Body(&rb); err != nil {
		log.Fatal(err)
	}
	return rb
}

func launch(node transport.Node, home string, args []string) {
	fs := flag.NewFlagSet("launch", flag.ExitOnError)
	codebase := fs.String("codebase", "example.Greeter", "registered codebase name")
	route := fs.String("route", "", `itinerary, e.g. "seq(host:port, host:port)"`)
	owner := fs.String("owner", "czxu", "launching principal")
	params := fs.String("params", "", "semicolon-separated agent parameters (NMNaplet MIB OIDs)")
	failover := fs.String("failover", "", "dead-destination policy: none | skip | alternates | home")
	wait := fs.Bool("wait", false, "poll until the naplet completes, then print its reports")
	fs.Parse(args)
	if *route == "" {
		log.Fatal("napletctl launch: -route is required")
	}

	body := server.ControlBody{
		Op:       "launch",
		Owner:    *owner,
		Codebase: *codebase,
		Route:    *route,
		Failover: *failover,
	}
	if *params != "" {
		body.Params = strings.Split(*params, ";")
	}
	rb := call(node, home, body)
	if !rb.OK {
		log.Fatalf("napletctl: launch failed: %s", rb.Err)
	}
	fmt.Println("launched:", rb.Status)
	if !*wait {
		return
	}

	nid, err := id.Parse(rb.Status)
	if err != nil {
		log.Fatal(err)
	}
	for {
		st := call(node, home, server.ControlBody{Op: "status", NapletID: nid})
		if !st.OK {
			log.Fatalf("napletctl: %s", st.Err)
		}
		fmt.Println("status:", st.Status)
		if st.Status == "completed" || st.Status == "terminated" || st.Status == "trapped" {
			if st.Err != "" {
				fmt.Println("error:", st.Err)
			}
			break
		}
		time.Sleep(250 * time.Millisecond)
	}
	res := call(node, home, server.ControlBody{Op: "results", NapletID: nid})
	for i, r := range res.Results {
		printReport(i+1, r)
	}
}

// printReport renders a report: NMNaplet payloads decode into a per-device
// table, anything else prints as text.
func printReport(n int, body []byte) {
	if rep, route, err := man.DecodeReport(body); err == nil && len(rep) > 0 {
		fmt.Printf("report %d (route %s):\n", n, strings.Join(route, " -> "))
		for _, dev := range rep.SortedDevices() {
			for oid, val := range rep[dev] {
				fmt.Printf("  %s %s = %s\n", dev, oid, val)
			}
		}
		return
	}
	fmt.Printf("report %d: %s\n", n, string(body))
}

func simpleOp(node transport.Node, home, op string, args []string) {
	fs := flag.NewFlagSet(op, flag.ExitOnError)
	idStr := fs.String("id", "", "naplet identifier")
	fs.Parse(args)
	nid, err := id.Parse(*idStr)
	if err != nil {
		log.Fatalf("napletctl %s: bad -id: %v", op, err)
	}
	rb := call(node, home, server.ControlBody{Op: op, NapletID: nid})
	if !rb.OK {
		log.Fatalf("napletctl: %s", rb.Err)
	}
	if op == "status" {
		fmt.Println("status:", rb.Status)
		if rb.Err != "" {
			fmt.Println("error:", rb.Err)
		}
		return
	}
	for i, r := range rb.Results {
		printReport(i+1, r)
	}
}

// footprints prints the server's visit records.
func footprints(node transport.Node, home string) {
	rb := call(node, home, server.ControlBody{Op: "footprints"})
	if !rb.OK {
		log.Fatalf("napletctl: %s", rb.Err)
	}
	for _, fp := range rb.Footprints {
		left := "still here"
		if !fp.LeftAt.IsZero() {
			left = fp.LeftAt.Format(time.RFC3339) + " -> " + fp.Dest
			if fp.Dest == "" {
				left = "ended " + fp.LeftAt.Format(time.RFC3339)
			}
		}
		fmt.Printf("%s  codebase=%s  from=%s  arrived=%s  %s\n",
			fp.NapletID, fp.Codebase, fp.Source, fp.ArrivedAt.Format(time.RFC3339), left)
	}
	if len(rb.Footprints) == 0 {
		fmt.Println("no footprints")
	}
}

// locate asks the home server's locator where a naplet was last registered
// — the same query path peers use, so it exercises the directory plane
// (and its shard routing, when configured) end to end. A dock registers a
// naplet where it stays, not at every landing, so a naplet that travels
// without a word may be up to k-1 hops past that dock; mail to it chases
// the visit traces from there (DESIGN §12).
func locate(node transport.Node, home string, args []string) {
	fs := flag.NewFlagSet("locate", flag.ExitOnError)
	idStr := fs.String("id", "", "naplet identifier")
	fs.Parse(args)
	nid, err := id.Parse(*idStr)
	if err != nil {
		log.Fatalf("napletctl locate: bad -id: %v", err)
	}
	f := wire.BinaryFrame(wire.KindLocatorQuery, "", home, &locator.QueryBody{NapletID: nid})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	reply, err := node.Call(ctx, home, f)
	if err != nil {
		log.Fatalf("napletctl locate: %v", err)
	}
	var rb locator.ReplyBody
	if err := rb.Decode(reply.Payload); err != nil {
		log.Fatal(err)
	}
	if !rb.Found {
		log.Fatalf("napletctl locate: %s: not found", nid)
	}
	fmt.Println("last registered at:", rb.Server)
}

func control(node transport.Node, home string, args []string) {
	fs := flag.NewFlagSet("control", flag.ExitOnError)
	idStr := fs.String("id", "", "naplet identifier")
	verb := fs.String("verb", "callback", "callback | suspend | resume | terminate")
	fs.Parse(args)
	nid, err := id.Parse(*idStr)
	if err != nil {
		log.Fatalf("napletctl control: bad -id: %v", err)
	}
	rb := call(node, home, server.ControlBody{
		Op:       "control",
		NapletID: nid,
		Verb:     naplet.ControlVerb(*verb),
	})
	if !rb.OK {
		log.Fatalf("napletctl: %s", rb.Err)
	}
	fmt.Println("control delivered")
}
