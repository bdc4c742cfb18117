// API client example: drive the batch-evaluation service through the
// typed v1 contract and the Go SDK — submit an async sweep,
// stream its progress over Server-Sent Events, and read the terminal
// snapshot. The service runs in-process behind httptest so the example
// is self-contained, but client.New works identically against a real
// `cimloop serve -addr :8080`.
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
	srv := cimloop.NewServer(cimloop.BatchOptions{Workers: 2, AsyncThreshold: -1})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	c := cimloop.NewClient(ts.URL)
	ctx := context.Background()

	// One synchronous evaluation through the typed contract.
	res, err := c.Evaluate(ctx, cimloop.EvalRequest{Macro: "macro-b", Network: "toy", MaxMappings: 4})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-22s %.3g J (%.3g TOPS/W)\n", res.Tag, res.EnergyJ, res.TOPSPerW)

	// An async sweep: it joins the server's FIFO job queue.
	acc, err := c.SubmitJob(ctx, cimloop.SweepRequest{
		Macros:   []string{"base", "macro-b"},
		Networks: []string{"toy"},
		Layers:   2, MaxMappings: 4,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("accepted %s: events at %s\n", acc.Job.ID, acc.EventsURL)

	// Wait via SSE (the SDK falls back to polling only if the stream is
	// unavailable), observing every progress event.
	final, err := c.WaitJob(ctx, acc.Job.ID, cimloop.WaitOptions{
		OnTransport: func(transport string) { fmt.Printf("progress transport: %s\n", transport) },
		OnEvent: func(ev cimloop.JobEvent) {
			fmt.Printf("  %s: %s %d/%d (v%d)\n", ev.Job.ID, ev.Job.Status, ev.Job.Completed, ev.Job.Total, ev.Job.Version)
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	if table, ok := final.Result.(string); ok {
		fmt.Println(table)
	}

	// Structured errors: stable machine-readable codes instead of string
	// matching.
	if _, err := c.Job(ctx, "job-999999"); err != nil {
		var apiErr *cimloop.APIError
		if errors.As(err, &apiErr) {
			fmt.Printf("typed error: code=%s http=%d\n", apiErr.Code, apiErr.HTTPStatus)
		}
	}
}
