// Package repro is a Go reproduction of "Naplet: A Flexible Mobile Agent
// Framework for Network-Centric Applications" (C.-Z. Xu, IPDPS 2002).
//
// The library implements the paper's full system: the Naplet agent
// abstraction with hierarchical identifiers, credentials, protected state,
// address books and navigation logs (internal/naplet, internal/id,
// internal/cred, internal/state); the structured itinerary mechanism with
// Singleton/Seq/Alt/Par composition (internal/itinerary); the NapletServer
// of Figure 2 and its seven components (internal/server and the packages it
// composes); the location and post-office messaging services of §4
// (internal/directory, internal/locator, internal/messenger); the security
// and resource management of §5 (internal/security, internal/monitor,
// internal/resource); and the §6 network-management application with its
// SNMP substrate and centralized baseline (internal/snmp, internal/man,
// internal/cnmp).
//
// See README.md for a tour, DESIGN.md for the system inventory, and
// EXPERIMENTS.md for the paper-versus-measured record. cmd/manbench prints
// the tables of the experiments nothing else proves (E1, E4, E5, E8, E9)
// and the benchmarks in bench_test.go regenerate their headlines; tests,
// the bench/ module and `napletctl loadgen` hold the rest.
package repro
