package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/loadgen"
)

// loadgenCmd drives sustained mixed traffic against a freshly built
// in-process testbed and judges the run against its SLOs. It is fully
// self-contained (no napletd needed): the fabric, device fleet and
// stations are constructed per run, so the same command gates CI and
// reproduces CI failures locally via -loadgen.seed.
func loadgenCmd(args []string) {
	fs := flag.NewFlagSet("loadgen", flag.ExitOnError)
	profile := fs.String("profile", "short", "traffic profile: "+profileNames())
	fabric := fs.String("fabric", "", "fabric: netsim-lan, netsim-wan, tcp or both (default both)")
	devices := fs.Int("devices", 0, "override the profile's device count")
	seed := fs.Int64("loadgen.seed", 1, "seed for the deterministic plan (replay a CI failure by its printed seed)")
	faults := fs.Bool("faults", false, "enable seeded fault injection (netsim fabrics only)")
	fs.Parse(args)

	prof, ok := loadgen.Profiles[*profile]
	if !ok {
		fmt.Fprintf(os.Stderr, "napletctl loadgen: unknown profile %q (have %s)\n", *profile, profileNames())
		os.Exit(2)
	}
	if *devices > 0 {
		prof.Devices = *devices
	}

	fabrics := []string{loadgen.FabricNetsimWAN, loadgen.FabricTCP}
	switch *fabric {
	case "", "both":
		if *faults {
			// Scripted faults need the simulator's stable names.
			fabrics = []string{loadgen.FabricNetsimWAN}
		}
	default:
		fabrics = []string{*fabric}
	}

	failed := false
	for i, fb := range fabrics {
		if i > 0 {
			fmt.Println()
		}
		start := time.Now()
		res, err := loadgen.Run(context.Background(), loadgen.Config{
			Profile: prof,
			Fabric:  fb,
			Seed:    *seed,
			Faults:  *faults,
			Out:     os.Stdout,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "napletctl loadgen: %s: %v (after %s)\n", fb, err, time.Since(start).Round(time.Millisecond))
			os.Exit(1)
		}
		if len(res.Violations) > 0 {
			failed = true
		}
	}
	if failed {
		os.Exit(1)
	}
}

func profileNames() string {
	names := make([]string, 0, len(loadgen.Profiles))
	for n := range loadgen.Profiles {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}
