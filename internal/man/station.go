package man

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/manager"
	"repro/internal/server"
	"repro/internal/snmp"
	"repro/internal/state"
)

// Station is the MAN management station: it owns a home naplet server and
// launches NMNaplets against the managed devices (the MAP — Mobile Agent
// Producer — of Figure 3).
type Station struct {
	// Server is the station's home naplet server.
	Server *server.Server
	// Owner is the launching principal.
	Owner string
	// Roles are carried in launched naplets' credentials.
	Roles []string
}

// CollectSequential performs the §6 collection with one agent touring all
// devices in sequence and reporting once after the last visit.
func (st *Station) CollectSequential(ctx context.Context, devices []string, oids []snmp.OID) (Report, Stats, error) {
	return st.collect(ctx, devices, oids, true)
}

// CollectBroadcast performs the §6.2 collection with the broadcast
// itinerary: a clone per device, each reporting individually.
func (st *Station) CollectBroadcast(ctx context.Context, devices []string, oids []snmp.OID) (Report, Stats, error) {
	return st.collect(ctx, devices, oids, false)
}

func (st *Station) collect(ctx context.Context, devices []string, oids []snmp.OID, sequential bool) (Report, Stats, error) {
	var stats Stats
	start := time.Now()
	defer func() { stats.Elapsed = time.Since(start) }()

	pattern := BroadcastPattern(devices)
	wantReports := len(devices)
	stats.Agents = len(devices)
	if sequential {
		pattern = SequentialPattern(devices)
		wantReports = 1
		stats.Agents = 1
	}

	var (
		mu      sync.Mutex
		results []manager.Result
		gotAll  = make(chan struct{})
	)
	params := OIDStrings(oids)
	nid, err := st.Server.Launch(ctx, server.LaunchOptions{
		Owner:    st.Owner,
		Codebase: CodebaseName,
		Pattern:  pattern,
		Roles:    st.Roles,
		InitState: func(s *state.State) error {
			return s.SetPrivate(paramsKey, params)
		},
		Listener: func(r manager.Result) {
			mu.Lock()
			defer mu.Unlock()
			results = append(results, r)
			if len(results) == wantReports {
				close(gotAll)
			}
		},
	})
	if err != nil {
		return nil, stats, err
	}

	select {
	case <-gotAll:
	case <-ctx.Done():
		return nil, stats, ctx.Err()
	}
	// The originator's life cycle also completes; surface trap errors.
	if status, err := st.Server.WaitDone(ctx, nid); err == nil {
		if status == manager.StatusTrapped {
			_, errText, _ := st.Server.Status(nid)
			return nil, stats, fmt.Errorf("man: naplet trapped: %s", errText)
		}
	}

	mu.Lock()
	defer mu.Unlock()
	stats.Reports = len(results)
	p := reportPayload{Status: make(Report)}
	for _, r := range results {
		if err := p.decode(r.Body); err != nil {
			return nil, stats, err
		}
	}
	return p.Status, stats, nil
}
