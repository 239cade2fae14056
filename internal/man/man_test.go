package man

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/cnmp"
	"repro/internal/manager"
	"repro/internal/naplet"
	"repro/internal/netsim"
	"repro/internal/server"
	"repro/internal/snmp"
	"repro/internal/state"
	"repro/internal/wire"
)

func testbed(t *testing.T, devices, extraVars int) *Testbed {
	t.Helper()
	tb, err := NewTestbed(TestbedConfig{
		Devices:    devices,
		ExtraVars:  extraVars,
		Link:       netsim.LAN,
		Seed:       42,
		BundleSize: 8 << 10, // a small agent class file set
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tb.Close)
	return tb
}

func TestRetrieve(t *testing.T) {
	dev := snmp.NewDevice(snmp.DeviceConfig{Name: "r1"})
	got := retrieve(dev.Agent, "public", snmp.OIDSysName.String())
	if got != snmp.OIDSysName.String()+"=r1" {
		t.Fatalf("retrieve = %q", got)
	}
	multi := retrieve(dev.Agent, "public", snmp.OIDSysName.String()+";"+snmp.OIDIfNumber.String())
	if !strings.Contains(multi, "=r1") || !strings.Contains(multi, "=4") {
		t.Fatalf("multi = %q", multi)
	}
	bad := retrieve(dev.Agent, "public", "9.9.9.9")
	if !strings.Contains(bad, "error") {
		t.Fatalf("bad oid = %q", bad)
	}
	walk := retrieve(dev.Agent, "public", "walk "+snmp.OIDSystem.String())
	if strings.Count(walk, "=") < 4 {
		t.Fatalf("walk = %q", walk)
	}
	if got := retrieve(dev.Agent, "public", "walk not-an-oid"); !strings.Contains(got, "error") {
		t.Fatalf("bad walk = %q", got)
	}
}

func TestCollectSequential(t *testing.T) {
	tb := testbed(t, 3, 0)
	oids := []snmp.OID{snmp.OIDSysName, snmp.OIDIfNumber}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	report, stats, err := tb.Station.CollectSequential(ctx, tb.DeviceNames, oids)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Agents != 1 || stats.Reports != 1 {
		t.Fatalf("stats: %+v", stats)
	}
	if len(report) != 3 {
		t.Fatalf("report covers %d devices: %v", len(report), report)
	}
	for _, d := range tb.DeviceNames {
		if report[d][snmp.OIDSysName.String()] != d {
			t.Fatalf("device %s: %v", d, report[d])
		}
		if report[d][snmp.OIDIfNumber.String()] != "4" {
			t.Fatalf("device %s ifNumber: %v", d, report[d])
		}
	}
}

func TestCollectBroadcast(t *testing.T) {
	tb := testbed(t, 4, 0)
	oids := []snmp.OID{snmp.OIDSysName}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	report, stats, err := tb.Station.CollectBroadcast(ctx, tb.DeviceNames, oids)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Agents != 4 || stats.Reports != 4 {
		t.Fatalf("stats: %+v", stats)
	}
	if len(report) != 4 {
		t.Fatalf("report: %v", report)
	}
	if got := report.SortedDevices(); got[0] != "dev0" || got[3] != "dev3" {
		t.Fatalf("devices: %v", got)
	}
}

func TestManAndCnmpAgree(t *testing.T) {
	// Both management approaches must observe the same device state.
	tb := testbed(t, 3, 4)
	oids := tb.QueryOIDs(6)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	manRep, _, err := tb.Station.CollectSequential(ctx, tb.DeviceNames, oids)
	if err != nil {
		t.Fatal(err)
	}
	cnmpRep, _, err := tb.CNMP.Collect(ctx, tb.ResponderNames, oids, cnmp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range tb.DeviceNames {
		for _, oid := range oids {
			k := oid.String()
			if oid.Equal(snmp.OIDSysUpTime) {
				continue // time-dependent
			}
			if manRep[d][k] != cnmpRep[tb.ResponderNames[i]][k] {
				t.Fatalf("disagreement on %s %s: MAN=%q CNMP=%q",
					d, k, manRep[d][k], cnmpRep[tb.ResponderNames[i]][k])
			}
		}
	}
}

func TestE3TrafficShapeStationLoad(t *testing.T) {
	// The paper's central claim (§6): centralized micro-management
	// generates heavy traffic between the station and the devices, while
	// the mobile-agent approach does on-site management. With enough
	// variables per device, the CNMP station's byte count must exceed the
	// MAN station's by a widening factor.
	tb := testbed(t, 8, 32)
	oids := tb.QueryOIDs(32)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	tb.Net.ResetStats()
	if _, _, err := tb.Station.CollectSequential(ctx, tb.DeviceNames, oids); err != nil {
		t.Fatal(err)
	}
	manStation := tb.Net.HostStats(StationHost)
	manBytes := manStation.BytesSent + manStation.BytesRecv

	tb.Net.ResetStats()
	if _, _, err := tb.CNMP.Collect(ctx, tb.ResponderNames, oids, cnmp.Options{}); err != nil {
		t.Fatal(err)
	}
	cnmpStation := tb.Net.HostStats(CNMPHost)
	cnmpBytes := cnmpStation.BytesSent + cnmpStation.BytesRecv

	if manBytes == 0 || cnmpBytes == 0 {
		t.Fatalf("missing traffic: man=%d cnmp=%d", manBytes, cnmpBytes)
	}
	// 8 devices × 32 vars × 2 frames of CNMP vs 1 launch + 1 report at the
	// MAN station: expect at least 2x. (Both sides are metered on the same
	// binary primitives; a CNMP frame is ~76 bytes, a third of what gob's
	// per-message type descriptors made it when this bound read 3x.)
	if cnmpBytes < 2*manBytes {
		t.Fatalf("station-load shape violated: CNMP %d bytes, MAN %d bytes", cnmpBytes, manBytes)
	}
	t.Logf("station bytes: CNMP=%d MAN=%d ratio=%.1f", cnmpBytes, manBytes, float64(cnmpBytes)/float64(manBytes))
}

func TestE3CrossoverFewVariables(t *testing.T) {
	// With one variable per device and a large code bundle, the agent's
	// migration cost dominates: CNMP wins on total network load. This is
	// the crossover the literature (and the paper's "none of the individual
	// advantages represents an overwhelming motivation" caveat) predicts.
	tb, err := NewTestbed(TestbedConfig{
		Devices:    4,
		Link:       netsim.LAN,
		Seed:       1,
		BundleSize: 64 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	oids := tb.QueryOIDs(1)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	tb.Net.ResetStats()
	if _, _, err := tb.Station.CollectSequential(ctx, tb.DeviceNames, oids); err != nil {
		t.Fatal(err)
	}
	manTotal := tb.Net.TotalStats().BytesSent

	tb.Net.ResetStats()
	if _, _, err := tb.CNMP.Collect(ctx, tb.ResponderNames, oids, cnmp.Options{}); err != nil {
		t.Fatal(err)
	}
	cnmpTotal := tb.Net.TotalStats().BytesSent

	if cnmpTotal >= manTotal {
		t.Fatalf("crossover shape violated: with V=1 and 64 KiB code, CNMP total (%d) should be below MAN total (%d)", cnmpTotal, manTotal)
	}
	t.Logf("total bytes at V=1: CNMP=%d MAN=%d", cnmpTotal, manTotal)
}

func TestQueryOIDs(t *testing.T) {
	tb := testbed(t, 1, 8)
	if got := tb.QueryOIDs(2); len(got) != 2 {
		t.Fatalf("QueryOIDs(2) = %v", got)
	}
	got := tb.QueryOIDs(10)
	if len(got) != 10 {
		t.Fatalf("QueryOIDs(10) = %d", len(got))
	}
	// The synthetic extras must exist on the devices.
	for _, oid := range got {
		if _, err := tb.Devices[0].Agent.Get("public", oid); err != nil {
			t.Fatalf("missing %s: %v", oid, err)
		}
	}
}

func TestTickAdvancesAllDevices(t *testing.T) {
	tb := testbed(t, 2, 0)
	before, _ := tb.Devices[1].Agent.Get("public", snmp.OIDSysUpTime)
	tb.Tick(time.Second)
	after, _ := tb.Devices[1].Agent.Get("public", snmp.OIDSysUpTime)
	if after.Int <= before.Int {
		t.Fatal("tick did not advance device 1")
	}
}

func TestPatternShapes(t *testing.T) {
	seq := SequentialPattern([]string{"a", "b", "c"})
	if got := seq.String(); got != "seq(<a>, <b>, <c; ResultReport>)" {
		t.Fatalf("sequential = %q", got)
	}
	par := BroadcastPattern([]string{"a", "b"})
	if got := par.String(); got != "par(<a; ResultReport>, <b; ResultReport>)" {
		t.Fatalf("broadcast = %q", got)
	}
}

func TestTestbedValidation(t *testing.T) {
	if _, err := NewTestbed(TestbedConfig{}); err == nil {
		t.Fatal("zero devices must fail")
	}
}

func TestWalkCommandThroughFullStack(t *testing.T) {
	// The NMNaplet can carry a "walk <root>" parameter: the NetManagement
	// service walks the subtree on site and the naplet brings back every
	// binding under it.
	tb := testbed(t, 2, 0)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	// Drive the walk via the naplet's raw parameter state.
	results := make(chan string, 1)
	nid, err := tb.Station.Server.Launch(ctx, server.LaunchOptions{
		Owner:    "czxu",
		Codebase: CodebaseName,
		Pattern:  SequentialPattern(tb.DeviceNames[:1]),
		InitState: func(s *state.State) error {
			return s.SetPrivate("man.params", []string{"walk " + snmp.OIDSystem.String()})
		},
		Listener: func(r manager.Result) { results <- "" + string(r.Body) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tb.Station.Server.WaitDone(ctx, nid); err != nil {
		t.Fatal(err)
	}
	body := <-results
	rep, _, err := DecodeReport([]byte(body))
	if err != nil {
		t.Fatal(err)
	}
	dev := tb.DeviceNames[0]
	if len(rep[dev]) < 5 {
		t.Fatalf("system-subtree walk returned %d objects: %v", len(rep[dev]), rep[dev])
	}
	if rep[dev][snmp.OIDSysName.String()] != dev {
		t.Fatalf("walked sysName = %q", rep[dev][snmp.OIDSysName.String()])
	}
}

// TestSweepRecordGrowsByOneDevicePerStop: on a 16-device sequential sweep
// of 16 variables, the record that leaves each stop is bigger than the one
// that arrived by that device's own results and a log entry — a bounded
// step, the same at stop 15 as at stop 1 — because a stop adds a state key
// of its own instead of rewriting a map of everything gathered so far.
func TestSweepRecordGrowsByOneDevicePerStop(t *testing.T) {
	const devices, vars, maxStep = 16, 16, 260
	tb := testbed(t, devices, vars)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	report, _, err := tb.Station.CollectSequential(ctx, tb.DeviceNames, tb.QueryOIDs(vars))
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range tb.DeviceNames {
		if len(report[d]) != vars {
			t.Fatalf("%s reported %d variables, want %d", d, len(report[d]), vars)
		}
	}
	// One hop span per migration, recorded at its origin: hop 1 leaves the
	// station, hop k+1 leaves device k-1.
	leaving := make(map[int]int)
	for _, srv := range tb.Servers() {
		for _, span := range srv.Tracer().All() {
			leaving[span.Hop] = span.RecordBytes
		}
	}
	if len(leaving) != devices {
		t.Fatalf("%d hop spans, want %d", len(leaving), devices)
	}
	for hop := 2; hop <= devices; hop++ {
		if step := leaving[hop] - leaving[hop-1]; step <= 0 || step > maxStep {
			t.Errorf("record leaving stop %d: %d bytes, %d more than the one that arrived; want a step within (0, %d]",
				hop-1, leaving[hop], step, maxStep)
		}
	}
	if last := leaving[devices]; last > leaving[1]+(devices-1)*maxStep {
		t.Errorf("record leaving stop %d is %d bytes (launched at %d)", devices-1, last, leaving[1])
	}
}

// lineService is a naplet.ServicesAPI whose one channel answers every line
// with reply.
type lineService struct{ reply string }

func (s lineService) CallOpen(string, []string) (string, error) {
	return "", errors.New("no open services")
}
func (s lineService) Channels() []string                                { return []string{ServiceName} }
func (s lineService) OpenChannel(string) (naplet.ServiceChannel, error) { return s, nil }
func (s lineService) WriteLine(string) error                            { return nil }
func (s lineService) ReadLine() (string, error)                         { return s.reply, nil }
func (s lineService) Close() error                                      { return nil }

// TestOnStartTouchesOnlyItsOwnDevice: a stop reads and writes its own
// DeviceStatus key and no other. The other device's entry here holds a
// value no status map could be loaded from, so reading it would fail the
// visit; it must come through byte for byte.
func TestOnStartTouchesOnlyItsOwnDevice(t *testing.T) {
	st := state.New()
	if err := st.SetPrivate(paramsKey, []string{"1.3.6.1.2.1.1.5.0"}); err != nil {
		t.Fatal(err)
	}
	if err := st.SetProtected(statusPrefix+"dev0", 7, "station"); err != nil {
		t.Fatal(err)
	}
	ctx := &naplet.Context{
		Server:   "dev1",
		Record:   &naplet.Record{Home: "station", State: st},
		Services: lineService{reply: "1.3.6.1.2.1.1.5.0=core-1;1.3.6.1.2.1.1.3.0=error:noSuchName"},
	}
	for visit := 0; visit < 2; visit++ { // a device visited twice keeps one entry
		if err := new(NMNaplet).OnStart(ctx); err != nil {
			t.Fatalf("visit %d: %v", visit, err)
		}
	}
	var own map[string]string
	if err := st.Load(statusPrefix+"dev1", &own); err != nil || len(own) != 2 || own["1.3.6.1.2.1.1.5.0"] != "core-1" {
		t.Fatalf("dev1's status = %v, %v", own, err)
	}
	if mode, _ := st.ModeOf(statusPrefix + "dev1"); mode != state.Protected {
		t.Fatalf("dev1's status is %v, want protected", mode)
	}
	if v, err := st.Get(statusPrefix + "dev0"); err != nil || v != 7 {
		t.Fatalf("dev0's entry = %v, %v; want it untouched", v, err)
	}
	if want := []string{statusPrefix + "dev0", statusPrefix + "dev1", paramsKey}; !reflect.DeepEqual(st.Keys(), want) {
		t.Fatalf("state keys %v, want %v", st.Keys(), want)
	}
}

// TestReportPayloadCodecs: both report payloads survive
// encode→decode→encode byte for byte, and anything that does not lead with
// the version byte — a plain-text report, a truncated one — is an error.
func TestReportPayloadCodecs(t *testing.T) {
	rep := reportPayload{
		Status: map[string]string{"dev1|1.3.6.1.2.1.1.5.0": "core-1", "dev0|1.3.6.1.2.1.1.3.0": "4711"},
		Route:  []string{"station", "dev0", "dev1"},
	}
	enc := wire.EncodeBody(&rep)
	// Version, two entries, the sorted first key whole, and the second
	// sharing "dev" with it.
	want := append([]byte{2, 2, 0, 22}, "dev0|1.3.6.1.2.1.1.3.0"...)
	want = append(append(want, 4), "4711"...)
	want = append(append(want, 3, 19), "1|1.3.6.1.2.1.1.5.0"...)
	if !bytes.HasPrefix(enc, want) {
		t.Fatalf("status report does not lead with the version and its front-coded keys:\n got %x\nwant %x", enc, want)
	}
	var back reportPayload
	if err := back.decode(enc); err != nil || !reflect.DeepEqual(back, rep) {
		t.Fatalf("status report: %+v, %v", back, err)
	}
	if re := wire.EncodeBody(&back); !bytes.Equal(re, enc) {
		t.Fatalf("status report re-encoding differs:\n got %x\nwant %x", re, enc)
	}
	got, route, err := DecodeReport(enc)
	if err != nil || got["dev1"]["1.3.6.1.2.1.1.5.0"] != "core-1" || len(route) != 3 {
		t.Fatalf("DecodeReport = %v, %v, %v", got, route, err)
	}

	mon := monitorReport{Device: "dev3", Seen: 40, Filtered: 37, Alerts: []string{"linkDown eth2 down @r3"}}
	menc := wire.EncodeBody(&mon)
	var mback monitorReport
	if err := mback.decode(menc); err != nil || !reflect.DeepEqual(mback, mon) {
		t.Fatalf("monitor report: %+v, %v", mback, err)
	}
	if re := wire.EncodeBody(&mback); !bytes.Equal(re, menc) {
		t.Fatalf("monitor report re-encoding differs:\n got %x\nwant %x", re, menc)
	}

	for name, payload := range map[string][]byte{
		"text":      []byte("toured: sa -> sb"),
		"empty":     nil,
		"truncated": enc[:len(enc)/2],
		"version 1": append([]byte{1}, enc[1:]...),
	} {
		if err := new(reportPayload).decode(payload); !errors.Is(err, wire.ErrMalformed) {
			t.Errorf("%s: status report decode error = %v, want wire.ErrMalformed", name, err)
		}
		if err := new(monitorReport).decode(payload); !errors.Is(err, wire.ErrMalformed) {
			t.Errorf("%s: monitor report decode error = %v, want wire.ErrMalformed", name, err)
		}
	}
}
