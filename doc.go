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
// EXPERIMENTS.md for the paper-versus-measured record: each experiment's
// claim is a shape that a test in the owning package asserts, or a number
// the bench/ module or `napletctl loadgen` holds. bench_test.go holds
// micro-benchmarks of the core data structures.
package repro
