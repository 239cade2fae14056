// Fleet subcommands: napletctl talks to a napletmaster over the same
// wire protocol the docks use, listing the node table, running launch
// waves, and tailing the live event stream.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"repro/internal/fleet"
	"repro/internal/stats"
	"repro/internal/transport"
	"repro/internal/wire"
)

func fleetCmd(node transport.Node, master string, args []string) {
	if len(args) < 1 {
		fleetUsage()
	}
	switch args[0] {
	case "nodes":
		fleetNodes(node, master)
	case "wave":
		fleetWave(node, master, args[1:])
	case "watch":
		fleetWatch(node, master, args[1:])
	default:
		fleetUsage()
	}
}

func fleetUsage() {
	fmt.Fprintln(os.Stderr, "usage: napletctl -master <addr> fleet nodes")
	fmt.Fprintln(os.Stderr, "       napletctl -master <addr> fleet wave -codebase <name> -routes \"r1;r2\" [-count n] [flags]")
	fmt.Fprintln(os.Stderr, "       napletctl -master <addr> fleet watch [-buf n]")
	os.Exit(2)
}

// fleetNodes prints the master's node table.
func fleetNodes(node transport.Node, master string) {
	f, err := wire.NewFrame(wire.KindFleetNodes, "", master, fleet.NodesBody{})
	if err != nil {
		log.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	reply, err := node.Call(ctx, master, f)
	if err != nil {
		log.Fatalf("napletctl fleet nodes: %v", err)
	}
	var rb fleet.NodesReplyBody
	if err := reply.Body(&rb); err != nil {
		log.Fatal(err)
	}
	if len(rb.Nodes) == 0 {
		fmt.Println("no nodes registered")
		return
	}
	tbl := stats.NewTable("node", "state", "residents", "disk", "ingest B/s", "flags", "last seen")
	for _, n := range rb.Nodes {
		var flags []string
		if n.Draining {
			flags = append(flags, "draining")
		}
		if n.Over {
			flags = append(flags, "over-watermark")
		}
		flags = append(flags, n.Labels...)
		tbl.AddRow(n.Name, n.State, n.Residents, n.DiskUsedBytes,
			fmt.Sprintf("%.0f", n.IngestRate), strings.Join(flags, ","),
			n.LastSeen.Format(time.RFC3339))
	}
	fmt.Print(tbl.String())
}

// fleetWave submits a launch wave and prints the aggregated result.
func fleetWave(node transport.Node, master string, args []string) {
	fs := flag.NewFlagSet("wave", flag.ExitOnError)
	name := fs.String("name", "wave", "wave label in results and logs")
	codebase := fs.String("codebase", "", "registered codebase name")
	routes := fs.String("routes", "", `semicolon-separated itineraries, e.g. "seq(a,b);seq(b,c)"`)
	count := fs.Int("count", 1, "naplets launched per route")
	owner := fs.String("owner", "fleet", "launching principal")
	params := fs.String("params", "", "semicolon-separated agent parameters")
	failover := fs.String("failover", "skip", "dead-destination policy: none | skip | alternates | home")
	perNodeCap := fs.Int("per-node-cap", 4, "concurrently running launches per node")
	retries := fs.Int("retries", 3, "reschedule budget per launch: every failed attempt (launch call, dead dock, lost or trapped naplet) spends one")
	timeout := fs.Duration("timeout", 5*time.Minute, "whole-wave deadline")
	fs.Parse(args)
	if *codebase == "" || *routes == "" {
		log.Fatal("napletctl fleet wave: -codebase and -routes are required")
	}

	spec := fleet.WaveSpec{
		Name:       *name,
		Count:      *count,
		Owner:      *owner,
		Codebase:   *codebase,
		Failover:   *failover,
		PerNodeCap: *perNodeCap,
		Retries:    *retries,
		Timeout:    *timeout,
	}
	for _, r := range strings.Split(*routes, ";") {
		if r = strings.TrimSpace(r); r != "" {
			spec.Routes = append(spec.Routes, r)
		}
	}
	if *params != "" {
		spec.Params = strings.Split(*params, ";")
	}

	f, err := wire.NewFrame(wire.KindFleetWave, "", master, fleet.WaveBody{Spec: spec})
	if err != nil {
		log.Fatal(err)
	}
	// The call outlives the wave deadline by a margin so the master's
	// deadline fires first and the partial result still comes back.
	ctx, cancel := context.WithTimeout(context.Background(), *timeout+10*time.Second)
	defer cancel()
	reply, err := node.Call(ctx, master, f)
	if err != nil {
		log.Fatalf("napletctl fleet wave: %v", err)
	}
	var rb fleet.WaveReplyBody
	if err := reply.Body(&rb); err != nil {
		log.Fatal(err)
	}
	if rb.Result != nil {
		printWave(rb.Result)
	}
	if !rb.OK {
		log.Fatalf("napletctl fleet wave: %s", rb.Err)
	}
}

func printWave(res *fleet.WaveResult) {
	fmt.Printf("wave %s: completed %d/%d (failed %d, rescheduled %d) in %s\n",
		res.Name, res.Completed, res.Total, res.Failed, res.Rescheduled,
		res.Elapsed.Round(time.Millisecond))
	for n, c := range res.PerNode {
		fmt.Printf("  %s: %d completed\n", n, c)
	}
	for _, l := range res.Launches {
		line := fmt.Sprintf("launch %d [%s] at %s: %s", l.Index, l.Route, l.Node, l.Status)
		if l.Attempts > 1 {
			line += fmt.Sprintf(" (%d attempts)", l.Attempts)
		}
		if len(l.Result) > 0 {
			line += fmt.Sprintf(" — %q", l.Result)
		}
		if l.Err != "" {
			line += " — " + l.Err
		}
		fmt.Println(line)
	}
}

// fleetWatch subscribes to the master's event stream and tails it until
// the subscription closes (reaped, or dropped as too slow).
func fleetWatch(node transport.Node, master string, args []string) {
	fs := flag.NewFlagSet("watch", flag.ExitOnError)
	buf := fs.Int("buf", 1024, "subscriber ring capacity at the master")
	poll := fs.Duration("poll", 250*time.Millisecond, "polling cadence")
	fs.Parse(args)

	subscribe := func(body *fleet.SubscribeBody) fleet.SubscribeReplyBody {
		f := wire.BinaryFrame(wire.KindFleetSubscribe, "", master, body)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		reply, err := node.Call(ctx, master, f)
		if err != nil {
			log.Fatalf("napletctl fleet watch: %v", err)
		}
		var rb fleet.SubscribeReplyBody
		if err := rb.Decode(reply.Payload); err != nil {
			log.Fatal(err)
		}
		return rb
	}

	sub := subscribe(&fleet.SubscribeBody{Buf: uint32(*buf)})
	fmt.Fprintf(os.Stderr, "watching fleet events (subscription %s; ^C to stop)\n", sub.ID)
	// Dropped is cumulative per subscription; report only the delta so
	// one down-sampled burst is not re-announced on every poll.
	var lastDropped uint64
	for {
		rb := subscribe(&fleet.SubscribeBody{ID: sub.ID})
		if rb.Dropped > lastDropped {
			fmt.Fprintf(os.Stderr, "… %d events dropped (slow consumer)\n", rb.Dropped-lastDropped)
		}
		lastDropped = rb.Dropped
		for _, ev := range rb.Events {
			printEvent(ev)
		}
		if rb.Closed {
			log.Fatalf("napletctl fleet watch: subscription closed: %s", rb.Err)
		}
		if rb.Err != "" {
			log.Fatalf("napletctl fleet watch: %s", rb.Err)
		}
		time.Sleep(*poll)
	}
}

func printEvent(ev fleet.Event) {
	line := fmt.Sprintf("%s  #%d %-10s %s  naplet=%s hop=%d",
		ev.At.Format("15:04:05.000"), ev.Seq, ev.Kind, ev.Node, ev.Naplet, ev.Hop)
	if ev.From != "" || ev.To != "" {
		line += fmt.Sprintf("  %s -> %s", ev.From, ev.To)
	}
	if ev.Outcome != "" {
		line += "  " + ev.Outcome
	}
	if ev.Bytes > 0 {
		line += fmt.Sprintf("  %dB", ev.Bytes)
	}
	if ev.Elapsed > 0 {
		line += "  " + ev.Elapsed.Round(time.Microsecond).String()
	}
	if ev.Detail != "" {
		line += "  (" + ev.Detail + ")"
	}
	fmt.Println(line)
}
