package main

import (
	"context"
	"flag"
	"fmt"
	"strconv"
	"strings"

	cimloop "repro"
	"repro/internal/report"
	"repro/internal/serve/api"
	"repro/internal/sweepdef"
)

// runSweeps is the `cimloop sweeps` subcommand: declarative experiment
// definitions (sweeps/*.yaml, package sweepdef) listed, inspected,
// validated, and run — offline against an in-process evaluator, or
// against a running serve instance via the SDK when -addr is given.
//
//	cimloop sweeps ls [-dir ./sweeps | -addr URL]
//	cimloop sweeps show <name> [-dir ./sweeps]
//	cimloop sweeps validate [DIR]
//	cimloop sweeps run <name> [-p k=v ...] [-dir ./sweeps | -addr URL]
//	                   [-timeout D] [-csv]
func runSweeps(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("sweeps: missing verb (ls, show, validate, run)")
	}
	verb, rest := args[0], args[1:]
	switch verb {
	case "ls":
		return sweepsLs(rest)
	case "show":
		if len(rest) == 0 {
			return fmt.Errorf("sweeps show: missing definition name")
		}
		return sweepsShow(rest[0], rest[1:])
	case "validate":
		return sweepsValidate(rest)
	case "run":
		if len(rest) == 0 {
			return fmt.Errorf("sweeps run: missing definition name")
		}
		return sweepsRun(rest[0], rest[1:])
	}
	return fmt.Errorf("sweeps: unknown verb %q (have ls, show, validate, run)", verb)
}

// dirFlag registers the shared -dir flag for offline operation.
func dirFlag(fs *flag.FlagSet) *string {
	return fs.String("dir", "./sweeps", "definition directory for offline use")
}

// paramArgs collects repeated -p name=value bindings.
type paramArgs map[string]any

func (p paramArgs) String() string { return fmt.Sprintf("%v", map[string]any(p)) }

func (p paramArgs) Set(s string) error {
	name, value, ok := strings.Cut(s, "=")
	if !ok || name == "" {
		return fmt.Errorf("want name=value, got %q", s)
	}
	// Values stay strings; the definition's typed parameters coerce them
	// (the same path an HTTP caller's JSON numbers take).
	p[name] = value
	return nil
}

// infosTable renders experiment listings shared by offline and remote ls.
func infosTable(infos []api.ExperimentInfo) *report.Table {
	t := report.NewTable("Sweep definitions", "name", "requests", "params", "description")
	for _, info := range infos {
		var params []string
		for _, p := range info.Params {
			params = append(params, fmt.Sprintf("%s:%s", p.Name, p.Type))
		}
		ps := strings.Join(params, ", ")
		if ps == "" {
			ps = "-"
		}
		t.AddRow(info.Name, strconv.Itoa(info.Requests), ps, info.Description)
	}
	return t
}

func sweepsLs(args []string) error {
	fs := flag.NewFlagSet("sweeps ls", flag.ContinueOnError)
	dir := dirFlag(fs)
	addr := fs.String("addr", "", "serve instance to list instead of a local directory")
	token := tokenFlag(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *addr != "" {
		ctx, cancel := unaryCtx()
		defer cancel()
		out, err := newClient(*addr, *token).Experiments(ctx)
		if err != nil {
			return err
		}
		if len(out.Experiments) > 0 {
			fmt.Printf("built-in experiments: %s\n", strings.Join(out.Experiments, ", "))
		}
		fmt.Println(infosTable(out.Definitions).String())
		return nil
	}
	set, err := sweepdef.LoadDir(*dir)
	if err != nil {
		return err
	}
	fmt.Println(infosTable(set.Infos()).String())
	return nil
}

func sweepsShow(name string, args []string) error {
	fs := flag.NewFlagSet("sweeps show", flag.ContinueOnError)
	dir := dirFlag(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	set, err := sweepdef.LoadDir(*dir)
	if err != nil {
		return err
	}
	def, ok := set.Get(name)
	if !ok {
		return fmt.Errorf("sweeps show: no definition %q in %s (have %s)",
			name, *dir, strings.Join(set.Names(), ", "))
	}
	info := def.Info()
	t := report.NewTable("Definition "+info.Name, "field", "value")
	t.AddRow("file", info.File)
	if info.Description != "" {
		t.AddRow("description", info.Description)
	}
	t.AddRow("requests at defaults", strconv.Itoa(info.Requests))
	fmt.Println(t.String())
	if len(info.Params) > 0 {
		pt := report.NewTable("Parameters", "name", "type", "default", "constraints", "description")
		for _, p := range info.Params {
			var cons []string
			if p.Min != nil {
				cons = append(cons, fmt.Sprintf("min %g", *p.Min))
			}
			if p.Max != nil {
				cons = append(cons, fmt.Sprintf("max %g", *p.Max))
			}
			if len(p.Choices) > 0 {
				cons = append(cons, "one of "+strings.Join(p.Choices, "|"))
			}
			c := strings.Join(cons, ", ")
			if c == "" {
				c = "-"
			}
			pt.AddRow(p.Name, p.Type, fmt.Sprintf("%v", p.Default), c, p.Description)
		}
		fmt.Println(pt.String())
	}
	return nil
}

func sweepsValidate(args []string) error {
	fs := flag.NewFlagSet("sweeps validate", flag.ContinueOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	dir := "./sweeps"
	if fs.NArg() > 0 {
		dir = fs.Arg(0)
	}
	// LoadDir parses AND validates: any broken file fails the whole
	// directory, which is exactly what the CI gate wants.
	set, err := sweepdef.LoadDir(dir)
	if err != nil {
		return err
	}
	for _, def := range set.All() {
		reqs, err := def.Compile(nil)
		if err != nil {
			return err
		}
		fmt.Printf("ok: %s (%s, %d requests at defaults)\n", def.Name, def.File, len(reqs))
	}
	return nil
}

func sweepsRun(name string, args []string) error {
	fs := flag.NewFlagSet("sweeps run", flag.ContinueOnError)
	dir := dirFlag(fs)
	addr := fs.String("addr", "", "run on this serve instance instead of in-process")
	token := tokenFlag(fs)
	params := paramArgs{}
	fs.Var(params, "p", "bind one declared parameter as name=value (repeatable)")
	timeout := fs.Duration("timeout", 0, "deadline for the run (0 = none)")
	csv := fs.Bool("csv", false, "emit CSV instead of an aligned table (offline runs)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *addr != "" {
		return sweepsRunRemote(name, *addr, *token, params, timeout.Seconds())
	}
	set, err := sweepdef.LoadDir(*dir)
	if err != nil {
		return err
	}
	def, ok := set.Get(name)
	if !ok {
		return fmt.Errorf("sweeps run: no definition %q in %s (have %s)",
			name, *dir, strings.Join(set.Names(), ", "))
	}
	reqs, err := def.Compile(params)
	if err != nil {
		return err
	}
	srv := cimloop.NewServer(cimloop.BatchOptions{})
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	results, err := srv.SweepCtx(ctx, reqs, 0, nil)
	if err != nil {
		return err
	}
	t := cimloop.SweepResultsTable(results)
	if *csv {
		fmt.Print(t.CSV())
	} else {
		fmt.Println(t.String())
	}
	return nil
}

// sweepsRunRemote runs one definition on a serve instance via the SDK
// (POST /v1/experiments/{name}) and prints the sweep table.
func sweepsRunRemote(name, addr, token string, params paramArgs, timeoutSec float64) error {
	resp, err := newClient(addr, token).RunNamedExperiment(context.Background(), name, api.NamedExperimentRequest{
		Params:     params,
		TimeoutSec: timeoutSec,
	})
	if err != nil {
		return err
	}
	fmt.Println(resp.Table)
	return nil
}
