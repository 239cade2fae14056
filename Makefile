# Tier-1 verification and measurement targets.

# verify is the extended tier-1 gate: vet, build, full test suite, and a
# race pass over the packages that share sync.Pool buffers, per-
# connection scratch state, or lock-free metric hot paths. It also fails
# if any non-test package imports encoding/gob: the wire primitives are
# the one codec for what docks send, JSON the one for operator bodies.
# A codec is an append and a decode: it also fails if a size method comes
# back beside them — an EncodedSize outside the frame (which the fabrics
# meter) and the two the benchmark harness reads, or a call to a wire.Size*
# helper.
# bench/ is a module of its own that decodes the program's transfer bodies
# and compiles against its public API, so it is vetted and tested here too.
# Every Benchmark* function runs once (-short shrinks the million-entry
# directory planes), so none can stop compiling or start panicking unseen;
# what is gated is allocation ceilings, and those are tests in `go test ./...`.
verify:
	go vet ./...
	go build ./...
	@if go list -f '{{.ImportPath}} {{join .Imports " "}}' ./... | grep -w encoding/gob; then \
		echo "verify: the packages above import encoding/gob"; exit 1; fi
	@if grep -rn --include='*.go' --exclude='*_test.go' -e 'EncodedSize() int' -e 'wire\.Size[A-Z]' internal cmd \
		| grep -v -e '^internal/wire/wire.go:.*(f \*Frame)' -e '^internal/state/' -e '^internal/dock/'; then \
		echo "verify: the lines above bring back a size function beside a codec's append"; exit 1; fi
	go test ./...
	go test -run '^$$' -bench . -benchtime 1x -short ./...
	go -C bench vet ./... && go -C bench test ./...
	go test -race ./internal/wire/... ./internal/navigator/... ./internal/transport/... ./internal/netsim/... ./internal/telemetry/... ./internal/messenger/... ./internal/fault/... ./internal/health/... ./internal/dock/... ./internal/naplet/... ./internal/state/... ./internal/directory/... ./internal/locator/... ./internal/fleet/... ./internal/overload/...
	go run ./cmd/napletctl loadgen -check BENCH_loadgen.json
	$(MAKE) chaos

# chaos runs the seeded fault-injection suites under the race detector:
# ten fixed seeds driving tours and message streams through drops, dropped
# replies, duplicates, crashes and partitions (TestChaosSeeds), plus the
# server-death suite that crashes a mid-tour server for real and restarts
# it from its dock snapshot (TestChaosRestartSeeds), plus the directory
# suite that kills a shard replica mid-tour and asserts the location plane
# stays resolvable with exactly-once landings (TestChaosDirectorySeeds),
# plus the fleet suite that crash-kills a dock mid-launch-wave and asserts
# the master reschedules its launches with exactly-once landings while a
# slow event subscriber is shed without stalling ingest
# (TestChaosFleetSeeds), plus the overload suite that runs the fleet
# through synthesized overload sheds with the admission gate, breakers
# and retry budgets live, and reconciles every shed against the injector
# trail and telemetry (TestChaosOverloadSeeds). Reproduce a failing seed
# with:
# go test ./internal/server/ -run TestChaos -chaos.seed=N -v
# go test ./internal/fleet/  -run TestChaos -chaos.seed=N -v
chaos:
	go test -race -count=1 -run 'TestChaosSeeds|TestChaosRestartSeeds|TestChaosDirectorySeeds|TestChaosOverloadSeeds' ./internal/server/
	go test -race -count=1 -run 'TestChaosFleetSeeds' ./internal/fleet/

# bench runs every Benchmark* function in the module with allocation
# accounting: the E1, E4, E5, E8 and E9 headlines (bench_test.go) and
# each package's own — a warm hop between bare navigators, a TCP round trip bare and
# instrumented, the directory planes at a million entries, the fleet's wave
# and fan-out. Timings are this box's, this hour's: compare sub-benchmarks
# of one run, and quote allocs and bytes across commits.
bench:
	go test -run '^$$' -bench . -benchmem ./...

# fuzz runs the wire codec fuzz targets briefly; CI-sized smoke, not a
# campaign.
fuzz:
	go test -run '^$$' -fuzz 'FuzzDecode$$' -fuzztime 15s ./internal/wire/
	go test -run '^$$' -fuzz FuzzReadFrame -fuzztime 15s ./internal/wire/

# loadgen runs the full enterprise-scale load generation scenario: the
# man-sweep profile (2000 simulated SNMP devices, sustained mixed agent
# traffic, the §6 CNMP-vs-naplet sweep) against both the simulated WAN and
# a real TCP fabric, with the SLO table printed per run and a non-zero
# exit on any violation. Reproduce a failing run exactly with
# -loadgen.seed=N (the seed is printed in the run header).
loadgen:
	go run ./cmd/napletctl loadgen -profile man-sweep -devices 2000
	go run ./cmd/napletctl loadgen -profile man-sweep -faults -fabric netsim-lan

# bench-loadgen regenerates BENCH_loadgen.json, the loadgen trajectory
# baseline: work totals and station byte counts of the deterministic
# short-profile netsim run are gated; latency scalars ride along as
# context. The overload-resilience scenario is recorded as an extra run:
# `napletctl loadgen -check` (run by verify) replays the recorded
# profile/fabric/seed, then replays each extra and fails on its own
# violations (goodput floor, control-plane SLO, shed reconciliation).
bench-loadgen:
	go run ./cmd/napletctl loadgen -profile short -fabric netsim-wan -extra overload:netsim-lan -o BENCH_loadgen.json

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
	for pkg in navigator messenger directory locator fleet cnmp server; do \
		go test -run '^$$' -fuzz 'FuzzDecodeBodies$$' -fuzztime 10s ./internal/$$pkg/ || exit 1; done

.PHONY: verify chaos bench loadgen bench-loadgen compose-smoke fuzz fuzz-smoke
