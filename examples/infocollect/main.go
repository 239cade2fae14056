// Infocollect reproduces the three itinerary examples of §3 of the Naplet
// paper with a mobile information-collection application:
//
//   - Example 1: a single agent accumulates information over servers
//     s1..sn in sequence and reports after the last visit.
//   - Example 2: the servers are visited by multiple agents
//     simultaneously (a clone per server), each reporting home directly.
//   - Example 3: four servers visited by two naplets following
//     par(seq(s0, s1), seq(s2, s3)).
//
// Run it with:
//
//	go run ./examples/infocollect
package main

import (
	"context"
	"fmt"
	"log"
	"sort"
	"strings"
	"time"

	"repro/internal/itinerary"
	"repro/internal/manager"
	"repro/internal/naplet"
	"repro/internal/netsim"
	"repro/internal/registry"
	"repro/internal/server"
)

// collectAgent gathers a per-server measurement (here: the server's
// simulated load reading from an open service) into its private state.
type collectAgent struct{}

func (collectAgent) OnStart(ctx *naplet.Context) error {
	load, err := ctx.Services.CallOpen("workload", nil)
	if err != nil {
		load = "n/a"
	}
	var collected []string
	ctx.State().Load("collected", &collected)
	collected = append(collected, ctx.Server+"="+load)
	return ctx.State().SetPrivate("collected", collected)
}

func (collectAgent) OnDestroy(ctx *naplet.Context) {
	var collected []string
	ctx.State().Load("collected", &collected)
	ctx.Listener.Report(context.Background(), []byte(strings.Join(collected, ",")))
}

func buildSpace(names []string) (*netsim.Network, map[string]*server.Server, error) {
	net := netsim.New(netsim.Config{DefaultLink: netsim.LAN})
	reg := registry.New()
	reg.MustRegister(&registry.Codebase{
		Name: "example.Collector",
		New:  func() naplet.Behavior { return collectAgent{} },
		Actions: map[string]registry.ActionFunc{
			// The paper's DataComm operator: after each visit the naplets
			// exchange their latest findings (§3 Example 3).
			"DataComm": func(ctx *naplet.Context) error {
				msgs, err := naplet.AllExchange(ctx, "findings", []byte(ctx.Server))
				if err != nil {
					return err
				}
				var peers []string
				for _, m := range msgs {
					peers = append(peers, string(m.Body))
				}
				return ctx.State().SetPrivate("lastSync", peers)
			},
		},
	})
	servers := make(map[string]*server.Server, len(names))
	for i, name := range names {
		srv, err := server.New(server.Config{Name: name, Fabric: net, Registry: reg})
		if err != nil {
			return nil, nil, err
		}
		// Each host exposes a "workload" open service with a fixed
		// simulated reading.
		load := fmt.Sprintf("%d%%", 10+i*7)
		srv.Resources().RegisterOpen("workload", func([]string) (string, error) {
			return load, nil
		})
		servers[name] = srv
	}
	return net, servers, nil
}

// run launches the pattern and waits for `reports` reports.
func run(home *server.Server, pattern *itinerary.Pattern, reports int) ([]string, error) {
	got := make(chan string, reports)
	_, err := home.Launch(context.Background(), server.LaunchOptions{
		Owner:    "czxu",
		Codebase: "example.Collector",
		Pattern:  pattern,
		Listener: func(r manager.Result) { got <- string(r.Body) },
	})
	if err != nil {
		return nil, err
	}
	var out []string
	for i := 0; i < reports; i++ {
		select {
		case r := <-got:
			out = append(out, r)
		case <-time.After(30 * time.Second):
			return nil, fmt.Errorf("timeout waiting for report %d/%d", i+1, reports)
		}
	}
	sort.Strings(out)
	return out, nil
}

func main() {
	names := []string{"home", "s0", "s1", "s2", "s3"}
	net, servers, err := buildSpace(names)
	if err != nil {
		log.Fatal(err)
	}
	defer func() {
		for _, s := range servers {
			s.Close()
		}
	}()
	home := servers["home"]
	targets := names[1:]

	// Example 1: sequential accumulation, one report at the end.
	net.ResetStats()
	reports, err := run(home, itinerary.SeqVisits(targets, ""), 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Example 1 (seq, single agent):")
	fmt.Println(" ", reports[0])
	fmt.Printf("  traffic: %d frames\n\n", net.TotalStats().FramesSent)

	// Example 2: parallel broadcast, one clone per server, individual
	// reports.
	net.ResetStats()
	reports, err = run(home, itinerary.ParVisits(targets, ""), len(targets))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Example 2 (par, one clone per server):")
	for _, r := range reports {
		fmt.Println(" ", r)
	}
	fmt.Printf("  traffic: %d frames\n\n", net.TotalStats().FramesSent)

	// Example 3: par(seq(s0,s1), seq(s2,s3)) — two naplets, two stops
	// each.
	net.ResetStats()
	// As in the paper, the two naplets synchronize with DataComm after
	// every visit.
	pattern := itinerary.Par(
		itinerary.SeqVisits([]string{"s0", "s1"}, "DataComm"),
		itinerary.SeqVisits([]string{"s2", "s3"}, "DataComm"),
	)
	fmt.Println("Example 3 itinerary:", pattern)
	reports, err = run(home, pattern, 2)
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range reports {
		fmt.Println(" ", r)
	}
	fmt.Printf("  traffic: %d frames\n", net.TotalStats().FramesSent)
}
