// Crumblint machine-checks the invariants crumbcruncher's determinism
// guarantee rests on: no wall-clock reads outside annotated sites, no
// unseeded randomness, no order-dependent emission from map iteration,
// no leaked telemetry spans, and no fsync or rename outside the
// durable-write layer, plus the interprocedural resource-discipline
// checks.
//
// Run it over the module, test files included:
//
//	go run ./cmd/crumblint ./...
//
// `make lint` runs the same driver with its result cache; any finding
// fails it.
//
// A finding can be waived, visibly, with a //crumb:allow directive; see
// internal/lint/directive and DESIGN.md §9.
package main

import (
	"crumbcruncher/internal/lint"
	"crumbcruncher/internal/lint/driver"
)

func main() {
	driver.Main(lint.All()...)
}
