// Parsearch demonstrates the paper's §3 parallel-search scenario: "in the
// case of a parallel search, naplets need to communicate with each other
// about their latest search results. Success of the search in a naplet may
// need to terminate the execution of the others."
//
// A fleet of searcher naplets fans out over the server space looking for a
// document. The first to find it reports home; the owner then terminates
// the rest of the fleet with system messages.
//
// Run it with:
//
//	go run ./examples/parsearch
package main

import (
	"context"
	"fmt"
	"log"
	"strings"
	"time"

	"repro/internal/itinerary"
	"repro/internal/locator"
	"repro/internal/manager"
	"repro/internal/naplet"
	"repro/internal/netsim"
	"repro/internal/registry"
	"repro/internal/server"
	"repro/internal/state"
)

// searchAgent probes each server's "library" service for its target. When
// it finds the target it reports home immediately; otherwise it dwells
// briefly (a realistic search takes time) and travels on.
type searchAgent struct{}

func (searchAgent) OnStart(ctx *naplet.Context) error {
	var target string
	if err := ctx.State().Load("target", &target); err != nil {
		return err
	}
	result, err := ctx.Services.CallOpen("library", []string{target})
	if err != nil {
		return err
	}
	if result != "" {
		rctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := ctx.Listener.Report(rctx, []byte("found "+target+" at "+ctx.Server+": "+result)); err != nil {
			return err
		}
		ctx.State().SetPrivate("done", true)
		return nil
	}
	// Dwell: remain interruptible so a terminate cast lands promptly.
	select {
	case <-time.After(20 * time.Millisecond):
	case <-ctx.Cancel.Done():
		return ctx.Cancel.Err()
	}
	return nil
}

func main() {
	const fleets = 3 // three branches, three searchers
	net := netsim.New(netsim.Config{DefaultLink: netsim.LAN})
	reg := registry.New()
	reg.MustRegister(&registry.Codebase{
		Name: "example.Searcher",
		New:  func() naplet.Behavior { return searchAgent{} },
	})

	// Twelve library servers; the document lives on shelf7.
	var names []string
	for i := 0; i < 12; i++ {
		names = append(names, fmt.Sprintf("shelf%d", i))
	}
	servers := map[string]*server.Server{}
	for _, name := range append([]string{"home"}, names...) {
		srv, err := server.New(server.Config{
			Name: name, Fabric: net, Registry: reg,
			// Home-manager location mode so terminate messages can find
			// the moving searchers (every arrival is reported home).
			LocatorMode: locator.ModeHome,
		})
		if err != nil {
			log.Fatal(err)
		}
		defer srv.Close()
		has := name == "shelf7"
		srv.Resources().RegisterOpen("library", func(args []string) (string, error) {
			if has && len(args) > 0 && args[0] == "naplet-paper" {
				return "IPDPS 2002, pp. 77–84", nil
			}
			return "", nil
		})
		servers[name] = srv
	}
	home := servers["home"]

	// Partition the shelves among three parallel branches: the fleet is a
	// single Par itinerary, so the clones share lineage and the owner can
	// terminate them by identifier.
	branches := make([]*itinerary.Pattern, fleets)
	for i := 0; i < fleets; i++ {
		var route []string
		for j := i; j < len(names); j += fleets {
			route = append(route, names[j])
		}
		branches[i] = itinerary.SeqVisits(route, "")
	}

	found := make(chan string, fleets)
	nid, err := home.Launch(context.Background(), server.LaunchOptions{
		Owner:    "czxu",
		Codebase: "example.Searcher",
		Pattern:  itinerary.Par(branches...),
		InitState: func(s *state.State) error {
			return s.SetPrivate("target", "naplet-paper")
		},
		Listener: func(r manager.Result) { found <- string(r.Body) },
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("fleet launched:", nid, "with", fleets, "parallel branches")

	// Wait for the first success, then terminate the rest of the fleet.
	var result string
	select {
	case result = <-found:
	case <-time.After(30 * time.Second):
		log.Fatal("search timed out")
	}
	fmt.Println("SUCCESS:", result)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	terminated := 0
	for k := 0; k <= fleets; k++ {
		target := nid
		if k > 0 {
			target, _ = nid.Clone(k)
		}
		if err := home.Control(ctx, target, naplet.ControlTerminate); err == nil {
			terminated++
		}
	}
	fmt.Printf("terminate casts delivered to %d fleet members\n", terminated)
	if !strings.Contains(result, "shelf7") {
		log.Fatalf("unexpected result %q", result)
	}
}
