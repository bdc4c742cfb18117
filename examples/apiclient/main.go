// API client example: drive the batch-evaluation service through the
// typed v1 contract and the Go SDK — one evaluation, one sweep, and a
// structured error. The service runs in-process behind httptest so the
// example is self-contained, but client.New works identically against a
// real `cimloop serve -addr :8080`.
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net/http/httptest"

	"repro"
)

func main() {
	// A real deployment runs `cimloop serve`; here the same handler sits
	// behind httptest.
	srv := cimloop.NewServer(cimloop.BatchOptions{Workers: 2})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	c := cimloop.NewClient(ts.URL)
	ctx := context.Background()

	// One evaluation through the typed contract.
	res, err := c.Evaluate(ctx, cimloop.EvalRequest{Macro: "macro-b", Network: "toy", MaxMappings: 4})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-22s %.3g J (%.3g TOPS/W)\n", res.Tag, res.EnergyJ, res.TOPSPerW)

	// A sweep answers when its whole grid is done, one result per
	// request in request order. A ctx deadline (or "timeout_sec" in the
	// request) bounds it.
	sweep, err := c.Sweep(ctx, cimloop.SweepRequest{
		Macros:   []string{"base", "macro-b"},
		Networks: []string{"toy"},
		Layers:   2, MaxMappings: 4,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(sweep.Table)
	fmt.Printf("cache: %d hits, %d misses\n", sweep.Cache.Hits, sweep.Cache.Misses)

	// Structured errors: stable machine-readable codes instead of string
	// matching.
	if _, err := c.Evaluate(ctx, cimloop.EvalRequest{Macro: "no-such-macro", Network: "toy"}); err != nil {
		var apiErr *cimloop.APIError
		if errors.As(err, &apiErr) {
			fmt.Printf("typed error: code=%s http=%d\n", apiErr.Code, apiErr.HTTPStatus)
		}
	}
}
