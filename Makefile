# Tier-1 verification and measurement targets.

# verify is the extended tier-1 gate: vet, build, full test suite, and a
# race pass over the packages that share sync.Pool buffers, per-
# connection scratch state, or lock-free metric hot paths, and over the
# manager, whose End hands results to listeners between two lock sections,
# and over the monitor's scheduler and the resource manager's service-channel
# pipes, whose tests run goroutines by the dozen, and over the record's
# sections that stay encoded until touched — the naplet record, the state
# whose writes lie over its encoding, and the itinerary, whose Next moves
# its view of the encoded tail in place. It also fails
# if any non-test package imports encoding/gob: the wire primitives are
# the one codec for what docks send, JSON the one for operator bodies.
# A codec is an append and a decode: it also fails if a size method comes
# back beside them — an EncodedSize outside the frame (which the fabrics
# meter) and the two the benchmark harness reads, or a call to a wire.Size*
# helper. The request path lives once, in internal/transport/transport.go:
# it also fails if a budget is packed, an error reply built or decoded, or
# a panic recovered anywhere else (the monitor's naplet traps excepted).
# It fails, too, if gofmt would rewrite any file. The exported surface is
# guarded inside `go test ./...`: TestExportedSurfaceHasCallers (root
# package) fails on an exported function or method under internal/ that no
# non-test file names (a method by a selector x.Name, x not a package),
# bench/, cmd/ and examples/ included, unless its allowlist gives the reason.
# bench/ is a module of its own that decodes the program's transfer bodies
# and compiles against its public API, so it is vetted and tested here too.
# Every Benchmark* function runs once (-short shrinks the million-entry
# directory planes), so none can stop compiling or start panicking unseen;
# what is gated is allocation ceilings, and those are tests in `go test ./...`.
# The mixed loadgen profile on netsim (about 10 600 landings, a fraction of
# a second) gates its hop and confirm quantiles over every observation of
# the run; it is the fast profile whose series outgrow a few hundred
# samples. The full-length overload-resilience scenario runs last before
# chaos: its exit code is its gate (goodput floor, control-plane SLO, a
# filled queue, and every shed reconciled three ways). loadgen's byte and work-total
# trajectory is pinned in `go test ./...` (loadgen.TestShortProfileNetsim).
verify:
	go vet ./...
	@if [ -n "$$(gofmt -l .)" ]; then gofmt -l .; echo "verify: the files above are not gofmt-formatted"; exit 1; fi
	go build ./...
	@if go list -f '{{.ImportPath}} {{join .Imports " "}}' ./... | grep -w encoding/gob; then \
		echo "verify: the packages above import encoding/gob"; exit 1; fi
	@if grep -rn --include='*.go' --exclude='*_test.go' -e 'EncodedSize() int' -e 'wire\.Size[A-Z]' internal cmd \
		| grep -v -e '^internal/wire/wire.go:.*(f \*Frame)' -e '^internal/state/' -e '^internal/dock/'; then \
		echo "verify: the lines above bring back a size function beside a codec's append"; exit 1; fi
	@if grep -rn --include='*.go' --exclude='*_test.go' -e 'PackBudget(' -e 'rrorReply(' -e 'wire\.Error{' -e 'recover()' internal cmd \
		| grep -v -e '^internal/transport/transport.go:' -e '^internal/wire/budget.go:[0-9]*:func PackBudget(' -e '^internal/monitor/'; then \
		echo "verify: the lines above pack a budget, build or decode an error reply, or recover a panic outside transport's call and serve paths"; exit 1; fi
	go test ./...
	go test -run '^$$' -bench . -benchtime 1x -short ./...
	go -C bench vet ./... && go -C bench test ./...
	go test -race ./internal/wire/... ./internal/navigator/... ./internal/transport/... ./internal/netsim/... ./internal/telemetry/... ./internal/messenger/... ./internal/fault/... ./internal/health/... ./internal/dock/... ./internal/naplet/... ./internal/state/... ./internal/itinerary/... ./internal/directory/... ./internal/locator/... ./internal/fleet/... ./internal/overload/... ./internal/manager/... ./internal/monitor/... ./internal/resource/...
	go run ./cmd/napletctl loadgen -profile mixed -fabric netsim-lan
	go run ./cmd/napletctl loadgen -profile overload -fabric netsim-lan
	$(MAKE) chaos

# chaos runs the seeded fault-injection suites under the race detector:
# ten fixed seeds driving tours and message streams through drops, dropped
# replies, duplicates, crashes and partitions (TestChaosSeeds), plus the
# server-death suite that crashes a mid-tour server for real and restarts
# it from its dock snapshot (TestChaosRestartSeeds), plus the directory
# suite that kills a shard replica mid-tour (at the run's 18th call) and
# asserts the location plane stays resolvable with exactly-once landings
# (TestChaosDirectorySeeds),
# plus the fleet suite that crash-kills a dock mid-launch-wave and asserts
# the master reschedules its launches with exactly-once landings while a
# slow event subscriber is shed without stalling ingest
# (TestChaosFleetSeeds), plus the fleet regression, 20 runs, that kills a
# dock between heartbeats while the live docks are at their cap and asserts
# the master's failure detector takes it out of rotation on its failed
# launches (TestMasterCrashedDockLeavesRotation), plus the overload suite
# that runs the fleet through synthesized overload sheds with the admission gate and retry
# budgets live, reconciles every shed against the injector trail and
# telemetry, and asserts in a shed-only pass that no failure detector
# counted a shed as a miss (TestChaosOverloadSeeds), plus the free-running chase
# that posts to a touring mover without waiting to learn where it is and
# asserts every message arrives exactly once and no dock is left holding
# mail (TestFreeRunningChaseExactlyOnce), plus the end report that must
# reach the owner's listener once when its first attempt is dropped,
# loses its reply or is duplicated, and when a lost transfer ack holds the
# origin copy (TestEndReportExactlyOnce), plus fifty runs of E5's location
# modes, whose frame, lookup and invalidation-notice counts are pinned
# exactly and must not depend on the goroutine schedule — a post's
# confirmation racing the target's migration notice among them
# (TestLocationModes), plus twenty runs of the warm tour's call budget, whose
# meters are read only once the tour's last calls have returned and every
# hop's origin has recorded its span (TestWarmTourCallBudget), plus twenty
# runs of the stale-entry chase, where a naplet that registers only on every
# eighth hop is posted to and controlled at each of 17 stops and every post
# and control must chase the stale entry to it exactly once, within seven
# forwards, with no dock left holding mail (TestStaleEntryChase), plus twenty
# runs of the TCP mux's late-reply race, where calls that give
# up as their replies arrive are interleaved with calls that wait on one
# connection and every answered call must get its own reply, never one
# that landed in a pooled reply slot late (TestLateReplyNeverReachesAnotherCall),
# plus twenty runs of a call to a silent peer whose deadline only the frame
# carries, after calls on the same mux gave up early on their frame budgets
# interleaved with calls that were answered: the reply slots' timers are
# pooled with them, and a tick left in one would end a later call early —
# the silent call must end at its budget, sent once
# (TestSilentPeerEndsAtTheFrameBudget), plus fifty runs of the service
# channel's queues: both directions share one lock and go back to their
# inline arrays whenever they drain, so concurrent channels must each get
# their own replies and 1 000 lines queued each way before a read must all
# arrive in order, with a close from either end draining before io.EOF
# (TestConcurrentChannelUse, TestChannelQueuesAreUnbounded).
# Reproduce a failing seed with:
# go test ./internal/server/ -run TestChaos -chaos.seed=N -v
# go test ./internal/fleet/  -run TestChaos -chaos.seed=N -v
chaos:
	go test -race -count=1 -run 'TestChaosSeeds|TestChaosRestartSeeds|TestChaosDirectorySeeds|TestChaosOverloadSeeds|TestFreeRunningChaseExactlyOnce|TestEndReportExactlyOnce' ./internal/server/
	go test -race -count=50 -run 'TestLocationModes' ./internal/server/
	go test -race -count=20 -run 'TestWarmTourCallBudget' ./internal/server/
	go test -race -count=20 -run TestStaleEntryChase ./internal/server/
	go test -race -count=1 -run 'TestChaosFleetSeeds' ./internal/fleet/
	go test -race -count=20 -run 'TestMasterCrashedDockLeavesRotation' ./internal/fleet/
	go test -race -count=20 -run 'TestLateReplyNeverReachesAnotherCall' ./internal/transport/
	go test -race -count=20 -run 'TestSilentPeerEndsAtTheFrameBudget' ./internal/transport/
	go test -race -count=50 -run 'TestConcurrentChannelUse|TestChannelQueuesAreUnbounded' ./internal/resource/

# bench runs every Benchmark* function in the module with allocation
# accounting: the micro-benchmarks in bench_test.go and each package's
# own — a warm hop between bare navigators, a TCP round trip bare and
# instrumented, the directory planes at a million entries, the fleet's wave
# and fan-out. Timings are this box's, this hour's: compare sub-benchmarks
# of one run, and quote allocs and bytes across commits.
bench:
	go test -run '^$$' -bench . -benchmem ./...

# loadgen runs the full enterprise-scale load generation scenario: the
# man-sweep profile (2000 simulated SNMP devices, sustained mixed agent
# traffic, the §6 CNMP-vs-naplet sweep) against both the simulated WAN and
# a real TCP fabric, with the SLO table printed per run and a non-zero
# exit on any violation. Reproduce a failing run exactly with
# -loadgen.seed=N (the seed is printed in the run header).
loadgen:
	go run ./cmd/napletctl loadgen -profile man-sweep -devices 2000
	go run ./cmd/napletctl loadgen -profile man-sweep -faults -fabric netsim-lan

# compose-smoke builds the deploy/ images, boots a master + three docks
# under docker compose, waits for every dock to turn ready, runs a launch
# wave through napletctl, and asserts the tour results. Needs a docker
# daemon; CI gates on it, local runs are optional.
compose-smoke:
	docker compose -f deploy/docker-compose.yml up -d --build --wait
	./deploy/smoke.sh || (docker compose -f deploy/docker-compose.yml logs; exit 1)
	docker compose -f deploy/docker-compose.yml down -v

# fuzz-smoke gives every fuzz target ~10 seconds — enough to catch a fresh
# regression in the corpus-adjacent input space without slowing CI.
fuzz-smoke:
	go test -run '^$$' -fuzz 'FuzzDecode$$' -fuzztime 10s ./internal/wire/
	go test -run '^$$' -fuzz FuzzReadFrame -fuzztime 10s ./internal/wire/
	go test -run '^$$' -fuzz FuzzParse -fuzztime 10s ./internal/itinerary/
	go test -run '^$$' -fuzz 'FuzzDecodeRecord$$' -fuzztime 10s ./internal/naplet/
	go test -run '^$$' -fuzz 'FuzzDecodeMail$$' -fuzztime 10s ./internal/naplet/
	go test -run '^$$' -fuzz 'FuzzDecodeSnapshot$$' -fuzztime 10s ./internal/dock/
	go test -run '^$$' -fuzz 'FuzzDecodeError$$' -fuzztime 10s ./internal/wire/
	go test -run '^$$' -fuzz 'FuzzDecodeValue$$' -fuzztime 10s ./internal/state/
	go test -run '^$$' -fuzz 'FuzzWalk$$' -fuzztime 10s ./internal/state/
	go test -run '^$$' -fuzz 'FuzzOverlay$$' -fuzztime 10s ./internal/state/
	go test -run '^$$' -fuzz 'FuzzLazyNext$$' -fuzztime 10s ./internal/itinerary/
	go test -run '^$$' -fuzz 'FuzzDecodeReport$$' -fuzztime 10s ./internal/man/
	for pkg in navigator messenger directory locator fleet cnmp server; do \
		go test -run '^$$' -fuzz 'FuzzDecodeBodies$$' -fuzztime 10s ./internal/$$pkg/ || exit 1; done

.PHONY: verify chaos bench loadgen compose-smoke fuzz-smoke
