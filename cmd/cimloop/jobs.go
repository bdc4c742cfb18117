package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/client"
	"repro/internal/report"
	"repro/internal/serve/api"
	"repro/internal/serve/jobs"
)

// runJobs is the `cimloop jobs` subcommand: a thin shell over the Go SDK
// (internal/client) for the async job API of a running `cimloop serve`
// instance — the CLI holds no wire knowledge of its own.
//
//	cimloop jobs submit -macros a,b -networks x[,y] [...]
//	cimloop jobs list [-status running] [-limit N] [-cursor ID]
//	cimloop jobs status <id>
//	cimloop jobs wait <id> [-timeout 0] [-poll]
//	cimloop jobs cancel <id>
func runJobs(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("jobs: missing verb (submit, list, status, wait, cancel)")
	}
	verb, rest := args[0], args[1:]
	switch verb {
	case "submit":
		return jobsSubmit(rest)
	case "list":
		return jobsList(rest)
	case "status", "wait", "cancel":
		if len(rest) == 0 {
			return fmt.Errorf("jobs %s: missing job ID", verb)
		}
		id, rest := rest[0], rest[1:]
		switch verb {
		case "status":
			return jobsStatus(id, rest)
		case "wait":
			return jobsWait(id, rest)
		default:
			return jobsCancel(id, rest)
		}
	}
	return fmt.Errorf("jobs: unknown verb %q (have submit, list, status, wait, cancel)", verb)
}

// addrFlag registers the shared -addr flag.
func addrFlag(fs *flag.FlagSet) *string {
	return fs.String("addr", "http://localhost:8080", "base URL of the cimloop serve instance")
}

// tokenFlag registers the shared -token flag (falling back to the
// CIMLOOP_TOKEN environment variable, so the secret can stay out of
// shell history and process listings).
func tokenFlag(fs *flag.FlagSet) *string {
	return fs.String("token", os.Getenv("CIMLOOP_TOKEN"),
		"bearer token for a server started with -token-file (default $CIMLOOP_TOKEN; empty = no auth header)")
}

// newClient builds the SDK client with the shared flags applied.
func newClient(addr, token string) *client.Client {
	var opts []client.Option
	if token != "" {
		opts = append(opts, client.WithToken(token))
	}
	return client.New(addr, opts...)
}

// unaryCtx bounds one-shot calls (submit, list, status, cancel) so a
// hung server fails the command instead of wedging it; waits manage
// their own deadlines (-timeout, streaming).
func unaryCtx() (context.Context, context.CancelFunc) {
	return context.WithTimeout(context.Background(), 30*time.Second)
}

func splitList(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	for _, part := range strings.Split(s, ",") {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func jobsSubmit(args []string) error {
	fs := flag.NewFlagSet("jobs submit", flag.ContinueOnError)
	addr := addrFlag(fs)
	token := tokenFlag(fs)
	macroList := fs.String("macros", "", "comma-separated macro models to sweep")
	networks := fs.String("networks", "", "comma-separated workloads to sweep")
	scenarios := fs.String("scenarios", "", "comma-separated full-system scenarios (optional)")
	layers := fs.Int("layers", 0, "cap evaluated layers per network (0 = all)")
	mappings := fs.Int("mappings", 0, "per-layer mapping budget (0 = server default)")
	jobTimeout := fs.Duration("timeout", 0,
		"per-job deadline enforced server-side from job start (0 = none); an expired job fails with a deadline error")
	wait := fs.Bool("wait", false, "block until the job finishes and print its table")
	poll := fs.Bool("poll", false, "with -wait: poll instead of streaming progress via SSE")
	if err := fs.Parse(args); err != nil {
		return err
	}
	req := api.SweepRequest{
		Macros:      splitList(*macroList),
		Networks:    splitList(*networks),
		Scenarios:   splitList(*scenarios),
		Layers:      *layers,
		MaxMappings: *mappings,
		TimeoutSec:  jobTimeout.Seconds(),
	}
	if len(req.Macros) == 0 || len(req.Networks) == 0 {
		return fmt.Errorf("jobs submit: need -macros and -networks")
	}
	c := newClient(*addr, *token)
	ctx, cancel := unaryCtx()
	acc, err := c.SubmitJob(ctx, req)
	cancel()
	if err != nil {
		return err
	}
	fmt.Printf("accepted %s (%d requests): poll with `cimloop jobs status %s` or stream with `cimloop jobs wait %s`\n",
		acc.Job.ID, acc.Job.Total, acc.Job.ID, acc.Job.ID)
	if !*wait {
		return nil
	}
	return waitAndPrint(c, acc.Job.ID, 0, *poll)
}

func jobsList(args []string) error {
	fs := flag.NewFlagSet("jobs list", flag.ContinueOnError)
	addr := addrFlag(fs)
	token := tokenFlag(fs)
	status := fs.String("status", "", "filter by status (queued, running, succeeded, failed, cancelled)")
	limit := fs.Int("limit", 0, "page size (0 = server default)")
	cursor := fs.String("cursor", "", "resume after this job ID (next_cursor from the previous page)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	ctx, cancel := unaryCtx()
	defer cancel()
	out, err := newClient(*addr, *token).Jobs(ctx, api.JobListQuery{
		Status: jobs.Status(*status),
		Limit:  *limit,
		Cursor: *cursor,
	})
	if err != nil {
		return err
	}
	t := report.NewTable("Jobs", "id", "label", "status", "progress", "first error")
	for _, j := range out.Jobs {
		firstErr := j.FirstError
		if firstErr == "" {
			firstErr = "-"
		}
		t.AddRow(j.ID, j.Label, string(j.Status),
			fmt.Sprintf("%d/%d", j.Completed, j.Total), firstErr)
	}
	fmt.Println(t.String())
	if out.NextCursor != "" {
		fmt.Printf("more: cimloop jobs list -cursor %s\n", out.NextCursor)
	}
	return nil
}

// printSnapshot renders one job snapshot as key/value rows.
func printSnapshot(j jobs.Snapshot) {
	t := report.NewTable("Job "+j.ID, "field", "value")
	t.AddRow("label", j.Label)
	t.AddRow("status", string(j.Status))
	t.AddRow("progress", fmt.Sprintf("%d/%d", j.Completed, j.Total))
	if j.FirstError != "" {
		t.AddRow("first error", j.FirstError)
	}
	if j.Error != "" {
		t.AddRow("error", j.Error)
	}
	t.AddRow("elapsed (s)", strconv.FormatFloat(j.ElapsedSec, 'f', 3, 64))
	fmt.Println(t.String())
	if table, ok := j.Result.(string); ok && table != "" {
		fmt.Println(table)
	}
}

func jobsStatus(id string, args []string) error {
	fs := flag.NewFlagSet("jobs status", flag.ContinueOnError)
	addr := addrFlag(fs)
	token := tokenFlag(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	ctx, cancel := unaryCtx()
	defer cancel()
	snap, err := newClient(*addr, *token).Job(ctx, id)
	if err != nil {
		return err
	}
	printSnapshot(snap)
	return nil
}

func jobsWait(id string, args []string) error {
	fs := flag.NewFlagSet("jobs wait", flag.ContinueOnError)
	addr := addrFlag(fs)
	token := tokenFlag(fs)
	timeout := fs.Duration("timeout", 0, "give up after this long (0 = wait forever)")
	poll := fs.Bool("poll", false, "poll instead of streaming progress via SSE")
	if err := fs.Parse(args); err != nil {
		return err
	}
	return waitAndPrint(newClient(*addr, *token), id, *timeout, *poll)
}

// waitAndPrint drives the SDK's WaitJob to a terminal state, echoing
// progress transitions (and the transport carrying them) to stderr, then
// prints the final snapshot. Progress arrives via SSE unless the server
// cannot stream (or -poll forces the fallback). A failed or cancelled
// job is a non-zero exit; a job evicted from retention mid-wait names
// that condition instead of blaming the ID.
func waitAndPrint(c *client.Client, id string, timeout time.Duration, forcePoll bool) error {
	ctx := context.Background()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	seen := false
	snap, err := c.WaitJob(ctx, id, client.WaitOptions{
		DisableStream: forcePoll,
		OnTransport: func(transport string) {
			switch transport {
			case "sse":
				fmt.Fprintf(os.Stderr, "wait: streaming progress via SSE\n")
			default:
				fmt.Fprintf(os.Stderr, "wait: polling for progress\n")
			}
		},
		OnEvent: func(ev api.JobEvent) {
			seen = true
			fmt.Fprintf(os.Stderr, "%s: %s %d/%d\n", ev.Job.ID, ev.Job.Status, ev.Job.Completed, ev.Job.Total)
		},
	})
	if err != nil {
		var apiErr *api.Error
		if seen && errors.As(err, &apiErr) && apiErr.HTTPStatus == http.StatusNotFound {
			return fmt.Errorf("job %s finished but was evicted from retention before its result was read; raise the server's -job-retention", id)
		}
		if errors.Is(err, context.DeadlineExceeded) {
			return fmt.Errorf("job %s still not terminal after %s", id, timeout)
		}
		return err
	}
	printSnapshot(snap)
	if snap.Status != jobs.StatusSucceeded {
		return fmt.Errorf("job %s %s", snap.ID, snap.Status)
	}
	return nil
}

func jobsCancel(id string, args []string) error {
	fs := flag.NewFlagSet("jobs cancel", flag.ContinueOnError)
	addr := addrFlag(fs)
	token := tokenFlag(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	ctx, cancel := unaryCtx()
	defer cancel()
	snap, err := newClient(*addr, *token).CancelJob(ctx, id)
	if err != nil {
		return err
	}
	fmt.Printf("cancel requested: %s is %s (%d/%d)\n", snap.ID, snap.Status, snap.Completed, snap.Total)
	return nil
}
