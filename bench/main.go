// Command bench is the repository's one end-to-end benchmark: it builds an
// in-process fleet of full naplet docks through public constructors, drives
// four named workloads in a closed loop, verifies every result, and prints
// every metric in metrics.go by name with its unit. A second, traced pass
// re-runs each workload with spans recorded from this directory's own files
// and times each layer's public functions directly. It touches no layer's
// code. See README.md.
//
//	bash bench/run.sh                                  # all workloads, both passes
//	bash bench/run.sh -workload chase-tcp -pass e2e    # one workload, one pass
//	bash bench/run.sh -compare a.json b.json           # apply the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

// setupRounds is how many times a run sets up (fleet build + warm-up); the
// reported setup_s is their median and the last fleet is the one measured.
const setupRounds = 5

// options are one invocation's settings.
type options struct {
	workload string
	seed     int64
	windows  int
	window   time.Duration
	pass     string
	out      string
	traceDir string
	setups   int
	// ledgerBudget is how long each ledger line's timed loop runs.
	ledgerBudget time.Duration
	// log receives the human-readable report.
	log io.Writer
}

// environment records where the numbers came from.
type environment struct {
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"nproc"`
	Kernel     string  `json:"kernel"`
	Seed       int64   `json:"seed"`
	Windows    int     `json:"windows"`
	WindowS    float64 `json:"window_s"`
	Clients    int     `json:"clients"`
	Links      string  `json:"links"`
}

// workloadResult is one workload's outcome; the last line a run prints is
// its contract form (correct, attempted, failed, metrics).
type workloadResult struct {
	Name       string    `json:"name,omitempty"`
	PlanDigest string    `json:"plan_digest,omitempty"`
	ReqSamples int       `json:"req_samples,omitempty"`
	Correct    bool      `json:"correct"`
	Attempted  int       `json:"attempted"`
	Failed     int       `json:"failed"`
	Metrics    metricSet `json:"metrics"`
}

// runResult is what -out writes and -compare reads.
type runResult struct {
	Env       environment      `json:"env"`
	Workloads []workloadResult `json:"workloads"`
}

func main() {
	var o options
	var seconds float64
	var trace int
	var compare bool
	flag.StringVar(&o.workload, "workload", "all", "workload to run: all, or one of "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&o.seed, "seed", 1, "seed fixing routes, payload bytes and device MIB seeds")
	flag.IntVar(&o.windows, "windows", 5, "measurement windows per workload")
	flag.DurationVar(&o.window, "window", 5*time.Second, "length of one measurement window")
	flag.StringVar(&o.pass, "pass", "all", "pass to run: e2e, trace or all")
	flag.StringVar(&o.out, "out", "", "write the run's results as JSON to this file (input of -compare)")
	flag.Float64Var(&seconds, "seconds", 0, "total measuring time of a pass; overrides -window (window = seconds/windows)")
	flag.IntVar(&trace, "trace", -1, "0 runs the end-to-end pass, 1 the traced pass; overrides -pass")
	flag.BoolVar(&compare, "compare", false, "compare two result files (or comma-separated sets) given as arguments and apply the bounds")
	flag.Parse()

	if compare {
		if flag.NArg() != 2 {
			fatalf("bench: -compare needs two result files (each may be a comma-separated set)")
		}
		os.Exit(runCompare(os.Stdout, flag.Arg(0), flag.Arg(1)))
	}
	if seconds > 0 {
		o.window = time.Duration(seconds / float64(o.windows) * float64(time.Second))
	}
	switch trace {
	case 0:
		o.pass = "e2e"
	case 1:
		o.pass = "trace"
	}
	if o.pass != "e2e" && o.pass != "trace" && o.pass != "all" {
		fatalf("bench: unknown pass %q", o.pass)
	}
	o.setups = setupRounds
	o.traceDir = "bench/out"
	// The ledger gets about a fifth of a pass, spread over its lines.
	o.ledgerBudget = time.Duration(o.windows) * o.window / 5 / ledgerLines

	o.log = os.Stdout
	res, err := run(o)
	if err != nil {
		fatalf("bench: %v", err)
	}
	if o.out != "" {
		data, err := json.MarshalIndent(res, "", "  ")
		if err == nil {
			err = os.WriteFile(o.out, append(data, '\n'), 0o644)
		}
		if err != nil {
			fatalf("bench: write %s: %v", o.out, err)
		}
	}
	// The last line is the contract form of the last workload run.
	last := res.Workloads[len(res.Workloads)-1]
	ok := true
	for _, w := range res.Workloads {
		ok = ok && w.Correct
	}
	last.Name, last.PlanDigest, last.ReqSamples = "", "", 0
	line, err := json.Marshal(last)
	if err != nil {
		fatalf("bench: %v", err)
	}
	fmt.Println(string(line))
	if !ok {
		os.Exit(1)
	}
}

// run executes the selected workloads and passes.
func run(o options) (*runResult, error) {
	specs := workloads
	if o.workload != "all" {
		w, ok := findWorkload(o.workload)
		if !ok {
			return nil, fmt.Errorf("unknown workload %q", o.workload)
		}
		specs = []workloadSpec{w}
	}
	res := &runResult{Env: describeEnvironment(o)}
	fmt.Fprintf(o.log, "naplet bench: %s, GOMAXPROCS=%d nproc=%d, kernel %s, seed %d, %d windows x %s, closed loop of %d clients\n",
		res.Env.GoVersion, res.Env.GOMAXPROCS, res.Env.NumCPU, res.Env.Kernel, o.seed, o.windows, o.window, loadClients)
	fmt.Fprintf(o.log, "traffic crosses %s, never a real link\n", res.Env.Links)
	for _, w := range specs {
		wr, err := runWorkload(w, o)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		res.Workloads = append(res.Workloads, *wr)
	}
	if err := checkPlanDigests(res.Workloads); err != nil {
		return nil, err
	}
	return res, nil
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(2)
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

func describeEnvironment(o options) environment {
	kernel := "unknown"
	if out, err := exec.Command("uname", "-sr").Output(); err == nil {
		kernel = strings.TrimSpace(string(out))
	}
	return environment{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Kernel:     kernel,
		Seed:       o.seed,
		Windows:    o.windows,
		WindowS:    o.window.Seconds(),
		Clients:    loadClients,
		Links:      "host loopback (tcp workloads) or process memory (netsim workloads)",
	}
}

// checkPlanDigests asserts the two tour workloads ran the identical plan.
func checkPlanDigests(results []workloadResult) error {
	digests := map[string]string{}
	for _, r := range results {
		digests[r.Name] = r.PlanDigest
	}
	a, b := digests["tour-tcp"], digests["tour-netsim"]
	if a != "" && b != "" && a != b {
		return fmt.Errorf("tour-tcp ran plan %s but tour-netsim ran plan %s", a, b)
	}
	return nil
}

// maxFailRatio is the share of failed ops above which a workload's run is
// not correct and the command exits non-zero.
const maxFailRatio = 0.01

// setUp builds the workload's fleet and runs the fixed warm-up; the time it
// takes is one setup_s sample.
func setUp(w workloadSpec, p *plan, wrap fabricWrap, clients int) (*fleet, sessionFunc, float64, error) {
	start := time.Now()
	fl, err := newFleet(w.tcp, wrap)
	if err != nil {
		return nil, nil, 0, err
	}
	session, err := w.build(fl, p)
	if err != nil {
		fl.close()
		return nil, nil, 0, err
	}
	warm := runSessions(session, clients, warmupOps/(w.opsPerReq*w.reqPerSession))
	if warm.failRatio() > maxFailRatio {
		fl.close()
		return nil, nil, 0, fmt.Errorf("warm-up failed %d of %d ops", warm.failed, warm.attempted)
	}
	return fl, session, time.Since(start).Seconds(), nil
}

// runWorkload runs the selected passes of one workload and prints them.
func runWorkload(w workloadSpec, o options) (*workloadResult, error) {
	p := newPlan(w, o.seed)
	wr := &workloadResult{Name: w.name, PlanDigest: p.digest(), Correct: true, Metrics: metricSet{}}
	fmt.Fprintf(o.log, "\n== %s  plan=%s  (1 req = %d ops)\n   %s\n", w.name, wr.PlanDigest, w.opsPerReq, w.why)

	if o.pass != "trace" {
		m, setupS, err := runEndToEnd(w, p, o)
		if err != nil {
			return nil, err
		}
		wr.absorb(o.log, m, fill(endToEnd, m.endToEndValues(setupS)), endToEnd)
		// The traced pass reports these in the result; here they are context.
		u := m.unboundedValues()
		fmt.Fprintf(o.log, "   (not bounded: req_us_p50 %.1f us, req_us_p99 %.1f us, fail_ratio %.5f, retained_bytes_per_op %.1f B)\n",
			u["req_us_p50"], u["req_us_p99"], u["fail_ratio"], u["retained_bytes_per_op"])
	}
	if o.pass != "e2e" {
		m, vals, err := runTraced(w, p, o)
		if err != nil {
			return nil, err
		}
		wr.absorb(o.log, m, fill(perLayer, vals), perLayer)
	}
	return wr, nil
}

// absorb folds one pass into the workload's result and prints its metrics.
func (wr *workloadResult) absorb(log io.Writer, m *measurement, set metricSet, order []metricSpec) {
	wr.Attempted += m.attempted
	wr.Failed += m.failed
	wr.ReqSamples += m.requests
	wr.Correct = wr.Correct && m.attempted > 0 && m.failRatio() <= maxFailRatio
	fmt.Fprintf(log, "   attempted %d ops, failed %d, req_samples %d (%d per window)\n",
		m.attempted, m.failed, m.requests, m.requests/max(len(m.windows), 1))
	for _, s := range order {
		v := set[s.Name]
		wr.Metrics[s.Name] = v
		fmt.Fprintf(log, "   %-34s %16.4f %s\n", s.Name, v.Value, v.Unit)
	}
}

// runEndToEnd is the untraced pass: setupRounds set-ups (median reported),
// then the measurement windows on the last fleet.
func runEndToEnd(w workloadSpec, p *plan, o options) (*measurement, float64, error) {
	var setups []float64
	var fl *fleet
	var session sessionFunc
	for i := 0; i < o.setups; i++ {
		if fl != nil {
			if err := fl.close(); err != nil {
				return nil, 0, err
			}
		}
		var s float64
		var err error
		fl, session, s, err = setUp(w, p, nil, loadClients)
		if err != nil {
			return nil, 0, err
		}
		setups = append(setups, s)
	}
	m := runLoad(fl, session, loadClients, o.windows, o.window, nil)
	if err := fl.close(); err != nil {
		return nil, 0, err
	}
	return m, median(setups), nil
}
