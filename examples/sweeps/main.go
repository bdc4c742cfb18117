// Declarative experiments quickstart: load the repository's sweeps/
// directory, bind a parameter into one definition, and evaluate the
// compiled grid in-process — the offline half of docs/EXPERIMENTS.md.
// The same definitions serve at POST /v1/experiments/{name} when the
// server boots with `cimloop serve -sweeps ./sweeps`.
//
// Run from the repo root:  go run ./examples/sweeps
package main

import (
	"context"
	"fmt"
	"log"

	"repro"
)

func main() {
	// Load and validate every sweeps/*.yaml; one broken file fails the
	// whole directory, which is why CI can gate on this exact call.
	defs, err := cimloop.LoadSweepDefs("./sweeps")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("loaded %d definitions: %v\n\n", defs.Len(), defs.Names())

	def, ok := defs.Get("quick-smoke")
	if !ok {
		log.Fatal("no quick-smoke definition — run from the repo root")
	}

	// Bind a declared parameter. Strings coerce ("2" -> int 2), and
	// undeclared names or out-of-range values are errors — the same
	// rules an HTTP caller's params object goes through.
	reqs, err := def.Compile(map[string]any{"mappings": 2})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s compiles to %d requests at mappings=2\n\n", def.Name, len(reqs))

	// Evaluate the grid with the same engine the server uses.
	srv := cimloop.NewServer(cimloop.BatchOptions{})
	defer srv.Close()
	results, err := srv.SweepCtx(context.Background(), reqs, 0, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(cimloop.SweepResultsTable(results).String())
}
