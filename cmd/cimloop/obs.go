package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/obs"
	"repro/internal/report"
)

// runObs is the `cimloop obs` subcommand: read-only views of a running
// serve instance's observability surfaces (docs/OBSERVABILITY.md).
//
//	cimloop obs metrics [-addr URL]            dump GET /metrics verbatim
//	cimloop obs slow [-addr URL] [-limit N]    render GET /v1/debug/slow
func runObs(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("obs: missing verb (metrics, slow)")
	}
	verb, rest := args[0], args[1:]
	switch verb {
	case "metrics":
		return obsMetrics(rest)
	case "slow":
		return obsSlow(rest)
	}
	return fmt.Errorf("obs: unknown verb %q (have metrics, slow)", verb)
}

// obsMetrics prints the Prometheus text exposition untouched, so the
// output pipes cleanly into grep or promtool.
func obsMetrics(args []string) error {
	fs := flag.NewFlagSet("obs metrics", flag.ContinueOnError)
	addr := addrFlag(fs)
	token := tokenFlag(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	ctx, cancel := unaryCtx()
	defer cancel()
	text, err := newClient(*addr, *token).Metrics(ctx)
	if err != nil {
		return err
	}
	fmt.Print(text)
	return nil
}

func obsSlow(args []string) error {
	fs := flag.NewFlagSet("obs slow", flag.ContinueOnError)
	addr := addrFlag(fs)
	token := tokenFlag(fs)
	limit := fs.Int("limit", 0, "show at most N entries, newest first (0 = everything retained)")
	asJSON := fs.Bool("json", false, "emit the raw JSON response instead of a table")
	if err := fs.Parse(args); err != nil {
		return err
	}
	ctx, cancel := unaryCtx()
	defer cancel()
	out, err := newClient(*addr, *token).DebugSlow(ctx, *limit)
	if err != nil {
		return err
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(out)
	}
	title := fmt.Sprintf("Slow requests (%d retained of %d recorded", len(out.Requests), out.Recorded)
	if out.ThresholdSec > 0 {
		title += fmt.Sprintf(", threshold %.3gs", out.ThresholdSec)
	}
	title += ")"
	t := report.NewTable(title, "route", "tag", "duration (s)", "phases", "error")
	for _, e := range out.Requests {
		t.AddRow(e.Route, orDash(e.Tag),
			strconv.FormatFloat(e.DurationSec, 'f', 3, 64),
			orDash(phaseSummary(e.Phases)), orDash(e.Error))
	}
	fmt.Println(t.String())
	return nil
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}

// phaseSummary renders phase timings as "queue=0.010 search=1.200" in
// the order the server recorded them.
func phaseSummary(phases []obs.PhaseTiming) string {
	parts := make([]string, len(phases))
	for i, p := range phases {
		parts[i] = fmt.Sprintf("%s=%.3f", p.Phase, p.Seconds)
	}
	return strings.Join(parts, " ")
}
