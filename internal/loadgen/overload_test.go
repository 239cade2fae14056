package loadgen

import (
	"bytes"
	"context"
	"testing"
	"time"
)

// shortOverload shrinks the preset's phases so the test proves the rig
// end to end in well under a second per fabric.
func shortOverload() Profile {
	prof := Profiles["overload"]
	spec := *prof.Overload
	spec.Phase = 400 * time.Millisecond
	prof.Overload = &spec
	return prof
}

// TestOverloadProfile drives the overload scenario on both fabrics and
// holds it to its own contract: goodput floor, control-plane SLO and the
// three-way shed reconciliation all live in res.Violations, so a clean
// run is the whole proof.
func TestOverloadProfile(t *testing.T) {
	fabrics := []string{FabricNetsimLAN}
	if !testing.Short() {
		fabrics = append(fabrics, FabricTCP)
	}
	for _, fb := range fabrics {
		fb := fb
		t.Run(fb, func(t *testing.T) {
			checkGoroutines(t, func() {
				var out bytes.Buffer
				res, err := Run(context.Background(), Config{
					Profile: shortOverload(),
					Fabric:  fb,
					Seed:    1,
					Out:     &out,
				})
				if err != nil {
					t.Fatalf("run: %v\n%s", err, out.String())
				}
				if len(res.Violations) != 0 {
					t.Fatalf("violations: %v\n%s", res.Violations, out.String())
				}
				t.Log(out.String())
			})
		})
	}
}

// TestOverloadRejectsFaults: the overload profile makes its own weather;
// the seeded injector belongs to the testbed profiles.
func TestOverloadRejectsFaults(t *testing.T) {
	_, err := Run(context.Background(), Config{
		Profile: Profiles["overload"],
		Fabric:  FabricNetsimLAN,
		Faults:  true,
	})
	if err == nil {
		t.Fatal("faults on the overload profile should be rejected")
	}
}
