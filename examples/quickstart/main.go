// Quickstart: launch one mobile agent across three naplet servers and
// collect its report.
//
// The example builds an in-process naplet space on the simulated network
// fabric, registers a tiny agent codebase, launches the agent on a
// sequential itinerary, and prints the report it sends home — the smallest
// end-to-end use of the framework.
//
// Run it with:
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"strings"
	"time"

	"repro/internal/itinerary"
	"repro/internal/manager"
	"repro/internal/naplet"
	"repro/internal/netsim"
	"repro/internal/registry"
	"repro/internal/server"
)

// greeter is the agent: at every server it appends a greeting to its
// private state; when its itinerary completes it reports home.
type greeter struct{}

func (greeter) OnStart(ctx *naplet.Context) error {
	var greetings []string
	ctx.State().Load("greetings", &greetings)
	greetings = append(greetings, "hello from "+ctx.Server)
	return ctx.State().SetPrivate("greetings", greetings)
}

func (greeter) OnDestroy(ctx *naplet.Context) {
	var greetings []string
	ctx.State().Load("greetings", &greetings)
	ctx.Listener.Report(context.Background(), []byte(strings.Join(greetings, "; ")))
}

func main() {
	// A simulated network with LAN links, and a shared codebase registry.
	net := netsim.New(netsim.Config{DefaultLink: netsim.LAN})
	reg := registry.New()
	reg.MustRegister(&registry.Codebase{
		Name: "example.Greeter",
		New:  func() naplet.Behavior { return greeter{} },
	})

	// One home server plus three hosts for the agent to visit.
	var servers []*server.Server
	for _, name := range []string{"home", "alpha", "beta", "gamma"} {
		srv, err := server.New(server.Config{Name: name, Fabric: net, Registry: reg})
		if err != nil {
			log.Fatal(err)
		}
		defer srv.Close()
		servers = append(servers, srv)
	}
	home := servers[0]

	// Launch the agent on a sequential tour and wait for its report.
	report := make(chan string, 1)
	nid, err := home.Launch(context.Background(), server.LaunchOptions{
		Owner:    "alice",
		Codebase: "example.Greeter",
		Pattern:  itinerary.SeqVisits([]string{"alpha", "beta", "gamma"}, ""),
		Listener: func(r manager.Result) { report <- string(r.Body) },
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("launched naplet", nid)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	status, err := home.WaitDone(ctx, nid)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("final status:", status)
	fmt.Println("report:", <-report)
	fmt.Printf("network cost: %d frames, %d bytes\n",
		net.TotalStats().FramesSent, net.TotalStats().BytesSent)
}
