// Command napletd runs one naplet server over real TCP, forming a naplet
// space with other napletd processes (and optionally a central directory).
//
// Each daemon registers the built-in demo codebases (example.Greeter for
// quick tours, naplet.NMNaplet for network management) and hosts a
// simulated managed device behind the NetManagement privileged service, so
// napletctl can drive the paper's §6 application across real processes.
//
// A two-host session:
//
//	napletd -listen 127.0.0.1:7001 &
//	napletd -listen 127.0.0.1:7002 &
//	napletctl -home 127.0.0.1:7001 launch -codebase example.Greeter \
//	    -route "seq(127.0.0.1:7002)" -wait
//
// Run one directory-hosting daemon with -directory-serve and point the
// others at it with -directory to switch the space into directory mode.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"repro/internal/directory"
	"repro/internal/dock"
	"repro/internal/fault"
	"repro/internal/fleet"
	"repro/internal/locator"
	"repro/internal/man"
	"repro/internal/naplet"
	"repro/internal/overload"
	"repro/internal/registry"
	"repro/internal/server"
	"repro/internal/snmp"
	"repro/internal/telemetry"
	"repro/internal/transport"
)

// greeter is the demo tour agent compiled into every daemon.
type greeter struct{}

func (greeter) OnStart(ctx *naplet.Context) error {
	var tour []string
	ctx.State().Load("tour", &tour)
	return ctx.State().SetPrivate("tour", append(tour, ctx.Server))
}

func (greeter) OnDestroy(ctx *naplet.Context) {
	var tour []string
	ctx.State().Load("tour", &tour)
	ctx.Listener.Report(context.Background(), []byte("toured: "+strings.Join(tour, " -> ")))
}

func buildRegistry() (*registry.Registry, error) {
	reg := registry.New()
	if err := reg.Register(&registry.Codebase{
		Name: "example.Greeter",
		New:  func() naplet.Behavior { return greeter{} },
	}); err != nil {
		return nil, err
	}
	if err := man.RegisterCodebase(reg, 0); err != nil {
		return nil, err
	}
	return reg, nil
}

func main() {
	listen := flag.String("listen", "127.0.0.1:7001", "TCP address to serve on")
	dirServe := flag.Bool("directory-serve", false, "also host the central naplet directory on this address +1000")
	dirAddr := flag.String("directory", "", "directory address(es), comma-separated; more than one enables the sharded, replicated location plane (and directory location mode)")
	dirShards := flag.Int("dir-shards", 1, "with -directory-serve: number of directory shard services to host, on ports +1000, +1001, ...")
	dirReplicas := flag.Int("dir-replicas", 2, "replica-group size per directory shard (clamped to the node count)")
	community := flag.String("community", "public", "SNMP community of the local simulated device")
	slots := flag.Int("slots", 0, "concurrent naplet execution slots (0 = unlimited)")
	metricsAddr := flag.String("metrics-addr", "", "HTTP address serving /metrics, /healthz, /readyz and /spans (empty = disabled)")
	masterAddr := flag.String("master", "", "napletmaster address to register with (empty = no fleet control plane)")
	fleetLabels := flag.String("fleet-labels", "", "comma-separated operator labels reported to the master")
	dispatchRetries := flag.Int("dispatch-retries", 8, "migration retry budget per hop (exponential backoff)")
	dockDir := flag.String("dock-dir", "", "directory for durable dock snapshots; on boot the server restores resident naplets, held mail and dedup state from it (empty = volatile)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "graceful-drain budget on SIGTERM/SIGINT before the hard close")
	chaosSeed := flag.Int64("chaos-seed", 0, "enable the deterministic fault injector with this seed (0 = off)")
	chaosDrop := flag.Float64("chaos-drop", 0.05, "chaos: probability of dropping a request frame")
	chaosDup := flag.Float64("chaos-dup", 0.05, "chaos: probability of duplicating a frame")
	chaosDelay := flag.Float64("chaos-delay", 0.05, "chaos: probability of a latency spike")
	chaosOverload := flag.Float64("chaos-overload", 0, "chaos: probability of synthesizing a typed overload shed")
	overloadOn := flag.Bool("overload", false, "enable the overload-resilience stack: admission gate, retry budgets")
	ovInFlight := flag.Int("overload-inflight", 0, "overload: max concurrently executing bulk requests (0 = default 64)")
	ovQueue := flag.Int("overload-queue", 0, "overload: bulk admission queue depth (0 = default 2x inflight)")
	ovMaxWait := flag.Duration("overload-max-wait", 0, "overload: longest a bulk request may queue before a typed shed (0 = default 1s)")
	ovRetryRatio := flag.Float64("overload-retry-ratio", 0, "overload: retry-budget token earned per first attempt (0 = default 0.2)")
	ovRetryBurst := flag.Float64("overload-retry-burst", 0, "overload: retry-budget bucket cap and initial fill (0 = default 10)")
	flag.Parse()

	reg, err := buildRegistry()
	if err != nil {
		log.Fatal(err)
	}
	tcp := transport.NewTCPFabric()
	telem := telemetry.NewRegistry()
	tracer := telemetry.NewHopTracer(0)
	tcp.Instrument(telem)

	var fabric transport.Fabric = tcp
	if *chaosSeed != 0 {
		inj := fault.New(fault.Config{
			Seed: *chaosSeed,
			P: fault.Probabilities{
				DropRequest: *chaosDrop,
				Duplicate:   *chaosDup,
				Delay:       *chaosDelay,
				Overload:    *chaosOverload,
			},
			DelaySpike: 5 * time.Millisecond,
			Telemetry:  telem,
		})
		fabric = inj.Fabric(tcp)
		log.Printf("napletd: CHAOS fault injection enabled (seed %d, drop %.2f, dup %.2f, delay %.2f, overload %.2f)",
			*chaosSeed, *chaosDrop, *chaosDup, *chaosDelay, *chaosOverload)
	}

	var dirAddrs []string
	for _, a := range strings.Split(*dirAddr, ",") {
		if a = strings.TrimSpace(a); a != "" {
			dirAddrs = append(dirAddrs, a)
		}
	}
	mode := locator.ModeForward
	if len(dirAddrs) > 0 {
		mode = locator.ModeDirectory
	}
	if *dirServe {
		host, port, ok := strings.Cut(*listen, ":")
		if !ok {
			log.Fatalf("napletd: cannot derive directory port from %q", *listen)
		}
		var p int
		fmt.Sscanf(port, "%d", &p)
		if *dirShards < 1 {
			*dirShards = 1
		}
		for i := 0; i < *dirShards; i++ {
			daddr := fmt.Sprintf("%s:%d", host, p+1000+i)
			if _, err := directory.NewService().Serve(fabric, daddr); err != nil {
				log.Fatal(err)
			}
			dirAddrs = append(dirAddrs, daddr)
			log.Printf("napletd: directory service on %s", daddr)
		}
		mode = locator.ModeDirectory
	}

	var dockStore *dock.Store
	if *dockDir != "" {
		dockStore, err = dock.Open(*dockDir)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("napletd: durable dock in %s", *dockDir)
	}

	var ovOpts *overload.Options
	if *overloadOn {
		ovOpts = &overload.Options{
			MaxInFlight: *ovInFlight,
			MaxQueue:    *ovQueue,
			MaxWait:     *ovMaxWait,
			RetryRatio:  *ovRetryRatio,
			RetryBurst:  *ovRetryBurst,
		}
		log.Printf("napletd: overload stack enabled (inspect with `napletctl overload <metrics-addr>`)")
	}

	srv, err := server.New(server.Config{
		Name:           *listen,
		Fabric:         fabric,
		Overload:       ovOpts,
		Registry:       reg,
		LocatorMode:    mode,
		DirectoryAddrs: dirAddrs,
		DirReplicas:    *dirReplicas,
		Slots:          *slots,
		Telemetry:      telem,
		Tracer:         tracer,
		Dock:           dockStore,
		// Real deployments tolerate transient loss: retry with the
		// navigator's default exponential backoff (25ms -> 2s).
		DispatchRetries: *dispatchRetries,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Fleet control plane: register with the master, heartbeat with dock
	// stats, and export hop spans and nav-log events. The agent's queue
	// sheds load rather than block the migration path.
	var agent *fleet.Agent
	if *masterAddr != "" {
		var labels []string
		for _, l := range strings.Split(*fleetLabels, ",") {
			if l = strings.TrimSpace(l); l != "" {
				labels = append(labels, l)
			}
		}
		agent, err = fleet.NewAgent(fleet.AgentConfig{
			Node:        srv.Node(),
			Master:      *masterAddr,
			MetricsAddr: *metricsAddr,
			Labels:      labels,
			Telemetry:   telem,
			Stats: func() fleet.NodeStats {
				st := fleet.NodeStats{
					Residents: srv.Manager().Resident(),
					Draining:  srv.Draining(),
				}
				if dockStore != nil {
					if used, err := dockStore.DiskUsage(); err == nil {
						st.DiskUsedBytes = used
					}
				}
				return st
			},
		})
		if err != nil {
			log.Fatal(err)
		}
		tracer.SetSink(func(sp telemetry.HopSpan) { agent.Publish(fleet.SpanEvent(sp)) })
		srv.SetEventSink(func(e server.Event) { agent.Publish(fleet.NavEvent(e)) })
		agent.Run()
		defer agent.Close()
		log.Printf("napletd: fleet agent registering with master %s", *masterAddr)
	}

	if *metricsAddr != "" {
		start := time.Now()
		telem.GaugeFunc("naplet_process_uptime_seconds", "seconds since the daemon started", func() float64 {
			return time.Since(start).Seconds()
		})
		telem.GaugeFunc("naplet_process_goroutines", "goroutines in the daemon process", func() float64 {
			return float64(runtime.NumGoroutine())
		})
		// A draining server answers 503 so load balancers and peers stop
		// routing new work here while the evacuation runs.
		handler := telemetry.Handler(telem, tracer, func() error {
			if srv.Draining() {
				return fmt.Errorf("draining")
			}
			return nil
		})
		// /readyz is stricter than /healthz: liveness says the process
		// runs; readiness says it may take traffic. Dock restore and
		// directory registration complete inside server.New, before this
		// listener exists, so readiness adds: not draining, and (when a
		// master is configured) fleet registration has succeeded.
		mux := http.NewServeMux()
		mux.Handle("/", handler)
		mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
			if srv.Draining() {
				http.Error(w, "draining", http.StatusServiceUnavailable)
				return
			}
			if agent != nil && !agent.Registered() {
				http.Error(w, "awaiting fleet registration", http.StatusServiceUnavailable)
				return
			}
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			_, _ = w.Write([]byte("ready\n"))
		})
		go func() {
			log.Printf("napletd: telemetry on http://%s/metrics", *metricsAddr)
			if err := http.ListenAndServe(*metricsAddr, mux); err != nil {
				log.Printf("napletd: telemetry server: %v", err)
			}
		}()
	}

	// Host a simulated managed device behind the NetManagement service, so
	// NMNaplets have something to manage (§6).
	dev := snmp.NewDevice(snmp.DeviceConfig{
		Name:      *listen,
		Community: *community,
		Seed:      time.Now().UnixNano(),
		ExtraVars: 32,
	})
	if err := srv.Resources().RegisterPrivileged(man.ServiceName, man.NewNetManagementService(dev, *community)); err != nil {
		log.Fatal(err)
	}
	go func() {
		for range time.Tick(time.Second) {
			dev.Tick(time.Second)
		}
	}()

	log.Printf("napletd: serving naplet space on %s (location mode %s)", *listen, mode)
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	log.Printf("napletd: draining (budget %s; signal again to force close)", *drainTimeout)
	dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	go func() {
		<-sig
		log.Printf("napletd: second signal, aborting drain")
		cancel()
	}()
	if err := srv.Drain(dctx); err != nil {
		log.Printf("napletd: drain incomplete: %v", err)
	}
	cancel()
	log.Printf("napletd: shutting down")
	srv.Close()
}
