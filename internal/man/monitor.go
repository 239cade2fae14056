package man

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/itinerary"
	"repro/internal/manager"
	"repro/internal/naplet"
	"repro/internal/registry"
	"repro/internal/resource"
	"repro/internal/server"
	"repro/internal/snmp"
	"repro/internal/state"
	"repro/internal/wire"
)

// EventServiceName is the privileged service monitoring naplets use to
// read the local device's notification stream on site.
const EventServiceName = "serviceImpl.EventPoll"

// MonitorCodebaseName names the event-monitoring naplet in the registry.
const MonitorCodebaseName = "naplet.EventMonitor"

// NewEventPollService builds the privileged service that exposes a
// device's trap stream to resident naplets. Commands:
//
//	poll  -> one line per pending trap: "kind|seq|round|detail"
//	round -> the device's current workload round
func NewEventPollService(dev *snmp.Device) resource.Factory {
	return func() resource.PrivilegedService {
		return resource.ServiceFunc(func(ch *resource.ServerEnd) {
			for {
				cmd, err := ch.ReadLine()
				if err != nil {
					return
				}
				switch strings.TrimSpace(cmd) {
				case "poll":
					traps := dev.TakeTraps()
					lines := make([]string, len(traps))
					for i, tr := range traps {
						lines[i] = fmt.Sprintf("%s|%d|%d|%s", tr.Kind, tr.Seq, tr.Round, tr.Detail)
					}
					ch.WriteLine(strings.Join(lines, ";"))
				case "round":
					ch.WriteLine(strconv.Itoa(dev.TrapRound()))
				default:
					ch.WriteLine("error=unknown command " + cmd)
				}
			}
		})
	}
}

// MonitorNaplet is the on-site event monitor: it resides at a device,
// polls the local notification stream through the EventPoll service,
// filters out the noise, and reports only the significant alerts home —
// the mobile-agent answer to centralized trap flooding.
type MonitorNaplet struct{}

// monitorReport is the wire form of a monitor's final report:
//
//	[version] [string device] [uvarint seen] [uvarint filtered] [[]string alerts]
type monitorReport struct {
	Device   string
	Seen     int
	Filtered int
	Alerts   []string
}

func (r *monitorReport) AppendBinary(dst []byte) []byte {
	dst = wire.AppendString(append(dst, reportCodecVersion), r.Device)
	dst = wire.AppendUvarint(dst, uint64(r.Seen))
	dst = wire.AppendUvarint(dst, uint64(r.Filtered))
	return wire.AppendStrings(dst, r.Alerts)
}

func (r *monitorReport) decode(body []byte) error {
	rest, err := wire.DecVersion(body, reportCodecVersion)
	if err != nil {
		return err
	}
	if r.Device, rest, err = wire.DecString(rest); err != nil {
		return err
	}
	seen, rest, err := wire.DecUvarint(rest)
	if err != nil {
		return err
	}
	filtered, rest, err := wire.DecUvarint(rest)
	if err != nil {
		return err
	}
	r.Seen, r.Filtered = int(seen), int(filtered)
	r.Alerts, _, err = wire.DecStrings(rest)
	return err
}

// OnStart runs the monitoring loop until the device's workload reaches the
// round target in the naplet's state, then reports the filtered alerts.
func (MonitorNaplet) OnStart(ctx *naplet.Context) error {
	var rounds int
	if err := ctx.State().Load("man.rounds", &rounds); err != nil {
		return fmt.Errorf("man: monitor has no round target: %w", err)
	}
	ch, err := ctx.Services.OpenChannel(EventServiceName)
	if err != nil {
		return err
	}
	defer ch.Close()

	report := monitorReport{Device: ctx.Server}
	for {
		// The round is read before the poll, not after: a round the device
		// has completed is wholly in the stream by then, so the poll that
		// follows the target round leaves none of its traps behind.
		if err := ch.WriteLine("round"); err != nil {
			return err
		}
		roundLine, err := ch.ReadLine()
		if err != nil {
			return err
		}
		round, _ := strconv.Atoi(strings.TrimSpace(roundLine))
		if err := ch.WriteLine("poll"); err != nil {
			return err
		}
		line, err := ch.ReadLine()
		if err != nil {
			return err
		}
		if line != "" {
			for _, ev := range strings.Split(line, ";") {
				parts := strings.SplitN(ev, "|", 4)
				if len(parts) != 4 {
					continue
				}
				report.Seen++
				// On-site filtering: only link events leave the device.
				if parts[0] == snmp.TrapLinkDown.String() || parts[0] == snmp.TrapLinkUp.String() {
					report.Alerts = append(report.Alerts, parts[0]+" "+parts[3]+" @r"+parts[2])
				} else {
					report.Filtered++
				}
			}
		}
		if round >= rounds {
			break
		}
		select {
		case <-time.After(time.Millisecond):
		case <-ctx.Cancel.Done():
			return ctx.Cancel.Err()
		}
	}

	rctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return ctx.Listener.Report(rctx, wire.EncodeBody(&report))
}

// RegisterMonitorCodebase installs the event-monitoring naplet.
func RegisterMonitorCodebase(reg *registry.Registry, bundleSize int) error {
	return reg.Register(&registry.Codebase{
		Name:       MonitorCodebaseName,
		New:        func() naplet.Behavior { return MonitorNaplet{} },
		BundleSize: bundleSize,
	})
}

// MonitorResult aggregates the monitoring naplets' reports.
type MonitorResult struct {
	// Alerts maps device -> the filtered alert lines it reported.
	Alerts map[string][]string
	// Seen and Filtered total the events observed and suppressed on site.
	Seen     int
	Filtered int
}

// MonitorAll dispatches one monitoring naplet per device (the §6.2
// broadcast itinerary) and waits for every final report: each device's
// events are observed on site for `rounds` workload rounds, and only
// significant alerts cross the network.
func (st *Station) MonitorAll(ctx context.Context, devices []string, rounds int) (MonitorResult, error) {
	res := MonitorResult{Alerts: make(map[string][]string)}
	reports := make(chan manager.Result, len(devices))
	nid, err := st.Server.Launch(ctx, server.LaunchOptions{
		Owner:    st.Owner,
		Codebase: MonitorCodebaseName,
		// One resident monitor per device; monitors report from OnStart,
		// so no post-action is attached.
		Pattern: itinerary.ParVisits(devices, ""),
		Roles:   st.Roles,
		InitState: func(s *state.State) error {
			return s.SetPrivate("man.rounds", rounds)
		},
		Listener: func(r manager.Result) { reports <- r },
	})
	if err != nil {
		return res, err
	}
	_ = nid
	for i := 0; i < len(devices); i++ {
		select {
		case r := <-reports:
			var rep monitorReport
			if err := rep.decode(r.Body); err != nil {
				return res, err
			}
			res.Alerts[rep.Device] = rep.Alerts
			res.Seen += rep.Seen
			res.Filtered += rep.Filtered
		case <-ctx.Done():
			return res, ctx.Err()
		}
	}
	return res, nil
}
