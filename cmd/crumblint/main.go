// Crumblint machine-checks the invariants crumbcruncher's determinism
// guarantee rests on: no wall-clock reads outside annotated sites, no
// unseeded randomness, no order-dependent emission from map iteration,
// no leaked telemetry spans, and no fsync or rename outside the
// durable-write layer, plus the interprocedural resource-discipline
// checks.
//
// Run it standalone:
//
//	go run ./cmd/crumblint ./...
//
// or as a vet tool, which also covers test compilation units:
//
//	go build -o bin/crumblint ./cmd/crumblint
//	go vet -vettool=bin/crumblint ./...
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
