// Package sweepdef turns YAML files under a sweeps/ directory into
// first-class, parameterized experiments: each file declares a macro x
// network x scenario grid, search budgets, and typed parameters with
// defaults and ranges, and compiles — after binding parameter values
// into "{param}" placeholders — into the typed request grids of the batch-evaluation service (api.EvalRequest). The serving
// layer registers a directory of definitions behind GET /v1/experiments
// and POST /v1/experiments/{name}; the CLI runs the same files offline.
// Scenario coverage is data, not code: adding an experiment is writing a
// file, and the whole surface is fuzzable (see FuzzParse) and property-
// testable (see Generate).
//
// A definition looks like:
//
//	name: fig15-scenarios
//	description: Macro-B full-system scenario grid (paper Fig. 15)
//	params:
//	  - name: network
//	    type: string
//	    default: resnet18
//	    choices: [resnet18, vit-base, gpt2]
//	  - name: mappings
//	    type: int
//	    default: 30
//	    min: 1
//	    max: 500
//	axes:
//	  macros: [macro-b]
//	  networks: ["{network}"]
//	  scenarios: [all-tensors-from-dram, weight-stationary]
//	  system_macros: [1, 4]
//	budgets:
//	  max_mappings: "{mappings}"
//	layers: 0
//	seed: 0
//
// Axis entries and budget values may be "{param}" templates; every
// declared parameter carries a default, so a definition always compiles
// with no arguments — which is exactly what Validate checks, so a broken
// checked-in file fails `cimloop sweeps validate` (and CI) instead of
// failing at serve time.
package sweepdef

import (
	"fmt"
	"maps"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"

	"repro/internal/macros"
	"repro/internal/serve/api"
	"repro/internal/system"
	"repro/internal/workload"
	"repro/internal/yamlite"
)

// Param is one declared, typed parameter of a definition. Every
// parameter has a default, so binding an empty argument map always
// succeeds and Validate can dry-run the compile.
type Param struct {
	// Name is the placeholder identity: "{name}" in axis entries and
	// budget values substitutes this parameter's bound value.
	Name string
	// Type is one of "string", "int", "float", or "bool".
	Type string
	// Description is free-form documentation, surfaced in the parameter
	// schema of GET /v1/experiments.
	Description string
	// Default is the value used when the caller binds nothing. Its Go
	// type matches Type (string, int, float64, bool).
	Default any
	// Min and Max bound int/float parameters inclusively (nil = open).
	Min, Max *float64
	// Choices restricts a string parameter to an explicit set.
	Choices []string
}

// Definition is one parsed sweep definition. Axis entries and the
// budget/layer/seed fields may hold "{param}" templates; Compile resolves
// them against bound parameter values.
type Definition struct {
	Name        string
	Description string
	Params      []Param

	// Axes: the grid is the cross product macros x networks x scenarios x
	// system_macros. Scenarios and SystemMacros may be empty (bare macro,
	// single instance).
	Macros       []string
	Networks     []string
	Scenarios    []string
	SystemMacros []any // int or "{param}" string

	// Budgets and workload shaping. Each is an int literal or a "{param}"
	// string.
	MaxMappings any
	Layers      any
	Seed        any

	// File is the path the definition was loaded from ("" when parsed
	// from text without one).
	File string

	text string // raw document, for line attribution in bind errors
}

// MaxGridRequests caps one compiled grid. A definition (or a parameter
// binding) whose cross product exceeds it is rejected instead of fanning
// an unbounded sweep into the executor.
const MaxGridRequests = 4096

// paramNameRe pins parameter names to placeholder-safe identifiers.
var paramNameRe = regexp.MustCompile(`^[a-z][a-z0-9_]*$`)

// errf formats a definition error carrying the source file and a line
// number, so tooling (and the fuzz harness) can always point somewhere:
// "sweepdef: sweeps/fig15.yaml: line 12: ...".
func errf(file string, line int, format string, args ...any) error {
	return fmt.Errorf("sweepdef: %s: line %d: %s", file, line, fmt.Sprintf(format, args...))
}

// lineOf locates the first line whose content starts with "key:" (plain
// or as a "- key:" list entry), for attributing semantic errors to a
// source line. Falls back to 1 when the key is not found textually.
func lineOf(text, key string) int {
	return lineAfter(text, 0, key, 1)
}

// lineAfter is lineOf searching only the lines after line from, falling
// back to line otherwise.
func lineAfter(text string, from int, key string, otherwise int) int {
	for i, ln := range strings.Split(text, "\n")[from:] {
		t := strings.TrimSpace(ln)
		t = strings.TrimPrefix(t, "- ")
		if strings.HasPrefix(t, key+":") {
			return from + i + 1
		}
	}
	return otherwise
}

// nestedLine locates key in the block under the top-level header (axes,
// budgets): the first "key:" line after the header's own line, or else
// the header's line.
func nestedLine(text, header, key string) int {
	at := lineOf(text, header)
	return lineAfter(text, at, key, at)
}

// inFileOrder returns m's keys ordered by their source lines (line
// gives a key's), ties by name, so that of several faulty keys the first
// in the file is reported, every time.
func inFileOrder(m map[string]any, line func(key string) int) []string {
	lines := make(map[string]int, len(m))
	for key := range m {
		lines[key] = line(key)
	}
	keys := slices.Sorted(maps.Keys(m))
	slices.SortStableFunc(keys, func(a, b string) int { return lines[a] - lines[b] })
	return keys
}

// Parse decodes one definition document. file is used only for error
// attribution; every returned error names it and a line.
func Parse(file, text string) (*Definition, error) {
	doc, err := yamlite.Parse(text)
	if err != nil {
		// yamlite errors already carry "line N"; keep it verbatim.
		return nil, fmt.Errorf("sweepdef: %s: %w", file, err)
	}
	root, ok := doc.(map[string]any)
	if !ok {
		return nil, errf(file, 1, "top level must be a mapping")
	}
	d := &Definition{File: file, text: text}
	for _, key := range inFileOrder(root, func(key string) int { return lineOf(text, key) }) {
		v := root[key]
		switch key {
		case "name":
			s, ok := v.(string)
			if !ok || s == "" {
				return nil, errf(file, lineOf(text, key), "'name' must be a non-empty string")
			}
			d.Name = s
		case "description":
			s, ok := v.(string)
			if !ok {
				return nil, errf(file, lineOf(text, key), "'description' must be a string")
			}
			d.Description = s
		case "params":
			if err := d.parseParams(v); err != nil {
				return nil, err
			}
		case "axes":
			if err := d.parseAxes(v); err != nil {
				return nil, err
			}
		case "budgets":
			if err := d.parseBudgets(v); err != nil {
				return nil, err
			}
		case "layers":
			d.Layers = v
		case "seed":
			d.Seed = v
		default:
			return nil, errf(file, lineOf(text, key), "unknown key %q", key)
		}
	}
	if d.Name == "" {
		return nil, errf(file, 1, "missing 'name'")
	}
	if len(d.Macros) == 0 {
		return nil, errf(file, lineOf(text, "axes"), "'axes.macros' must list at least one macro")
	}
	if len(d.Networks) == 0 {
		return nil, errf(file, lineOf(text, "axes"), "'axes.networks' must list at least one network")
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return d, nil
}

func (d *Definition) parseParams(v any) error {
	list, ok := v.([]any)
	if !ok {
		return errf(d.File, lineOf(d.text, "params"), "'params' must be a list")
	}
	seen := map[string]bool{}
	for n, raw := range list {
		entry, ok := raw.(map[string]any)
		if !ok {
			return errf(d.File, lineOf(d.text, "params"), "param %d is not a mapping", n+1)
		}
		var p Param
		for key, pv := range entry {
			switch key {
			case "name":
				p.Name, _ = pv.(string)
			case "type":
				p.Type, _ = pv.(string)
			case "description":
				p.Description, _ = pv.(string)
			case "default":
				p.Default = pv
			case "min", "max":
				f, ok := pv.(float64)
				if !ok {
					return errf(d.File, lineOf(d.text, key), "param %d: '%s' must be a number", n+1, key)
				}
				if key == "min" {
					p.Min = &f
				} else {
					p.Max = &f
				}
			case "choices":
				cl, ok := pv.([]any)
				if !ok {
					return errf(d.File, lineOf(d.text, "choices"), "param %d: 'choices' must be a list", n+1)
				}
				for _, c := range cl {
					cs, ok := c.(string)
					if !ok {
						return errf(d.File, lineOf(d.text, "choices"), "param %d: choices must be strings", n+1)
					}
					p.Choices = append(p.Choices, cs)
				}
			default:
				return errf(d.File, lineOf(d.text, key), "param %d: unknown key %q", n+1, key)
			}
		}
		line := lineOf(d.text, "name")
		if p.Name != "" {
			line = lineOf(d.text, "name: "+p.Name)
		}
		if !paramNameRe.MatchString(p.Name) {
			return errf(d.File, lineOf(d.text, "params"), "param %d: 'name' must match %s", n+1, paramNameRe)
		}
		if seen[p.Name] {
			return errf(d.File, line, "duplicate param %q", p.Name)
		}
		seen[p.Name] = true
		switch p.Type {
		case "string", "int", "float", "bool":
		default:
			return errf(d.File, line, "param %q: type must be string, int, float, or bool (got %q)", p.Name, p.Type)
		}
		if p.Default == nil {
			return errf(d.File, line, "param %q: a 'default' is required (definitions must compile unparameterized)", p.Name)
		}
		def, err := coerce(p.Type, p.Default)
		if err != nil {
			return errf(d.File, line, "param %q: default %v", p.Name, err)
		}
		p.Default = def
		if (p.Min != nil || p.Max != nil) && p.Type != "int" && p.Type != "float" {
			return errf(d.File, line, "param %q: min/max apply only to int and float params", p.Name)
		}
		if len(p.Choices) > 0 && p.Type != "string" {
			return errf(d.File, line, "param %q: choices apply only to string params", p.Name)
		}
		if p.Min != nil && p.Max != nil && *p.Min > *p.Max {
			return errf(d.File, line, "param %q: min %v exceeds max %v", p.Name, *p.Min, *p.Max)
		}
		if err := checkRange(p, p.Default); err != nil {
			return errf(d.File, line, "param %q: default %v", p.Name, err)
		}
		d.Params = append(d.Params, p)
	}
	return nil
}

func (d *Definition) parseAxes(v any) error {
	m, ok := v.(map[string]any)
	if !ok {
		return errf(d.File, lineOf(d.text, "axes"), "'axes' must be a mapping")
	}
	strAxis := func(key string, raw any) ([]string, error) {
		list, ok := raw.([]any)
		if !ok {
			return nil, errf(d.File, nestedLine(d.text, "axes", key), "'axes.%s' must be a list of strings", key)
		}
		out := make([]string, 0, len(list))
		for _, e := range list {
			s, ok := e.(string)
			if !ok || s == "" {
				return nil, errf(d.File, nestedLine(d.text, "axes", key), "'axes.%s' entries must be non-empty strings", key)
			}
			out = append(out, s)
		}
		return out, nil
	}
	for _, key := range inFileOrder(m, func(key string) int { return nestedLine(d.text, "axes", key) }) {
		raw := m[key]
		var err error
		switch key {
		case "macros":
			d.Macros, err = strAxis(key, raw)
		case "networks":
			d.Networks, err = strAxis(key, raw)
		case "scenarios":
			d.Scenarios, err = strAxis(key, raw)
		case "system_macros":
			list, ok := raw.([]any)
			if !ok {
				return errf(d.File, nestedLine(d.text, "axes", key), "'axes.system_macros' must be a list")
			}
			d.SystemMacros = list
		default:
			return errf(d.File, nestedLine(d.text, "axes", key), "unknown axis %q", key)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func (d *Definition) parseBudgets(v any) error {
	m, ok := v.(map[string]any)
	if !ok {
		return errf(d.File, lineOf(d.text, "budgets"), "'budgets' must be a mapping")
	}
	for _, key := range inFileOrder(m, func(key string) int { return nestedLine(d.text, "budgets", key) }) {
		switch key {
		case "max_mappings":
			d.MaxMappings = m[key]
		default:
			return errf(d.File, nestedLine(d.text, "budgets", key), "unknown budget %q", key)
		}
	}
	return nil
}

// coerce converts a bound (or default) value to a parameter's declared
// type. YAML and JSON both deliver numbers as float64 and may deliver
// numerics as strings (CLI -p flags always do), so the conversion is
// forgiving about representation and strict about value.
func coerce(typ string, v any) (any, error) {
	switch typ {
	case "string":
		if s, ok := v.(string); ok {
			return s, nil
		}
		return nil, fmt.Errorf("must be a string, got %T", v)
	case "bool":
		switch t := v.(type) {
		case bool:
			return t, nil
		case string:
			b, err := strconv.ParseBool(t)
			if err != nil {
				return nil, fmt.Errorf("must be a bool, got %q", t)
			}
			return b, nil
		}
		return nil, fmt.Errorf("must be a bool, got %T", v)
	case "int":
		switch t := v.(type) {
		case float64:
			if t != math.Trunc(t) || math.IsInf(t, 0) || math.IsNaN(t) {
				return nil, fmt.Errorf("must be an integer, got %v", t)
			}
			return int(t), nil
		case int:
			return t, nil
		case string:
			n, err := strconv.Atoi(strings.TrimSpace(t))
			if err != nil {
				return nil, fmt.Errorf("must be an integer, got %q", t)
			}
			return n, nil
		}
		return nil, fmt.Errorf("must be an integer, got %T", v)
	case "float":
		switch t := v.(type) {
		case float64:
			return t, nil
		case int:
			return float64(t), nil
		case string:
			f, err := strconv.ParseFloat(strings.TrimSpace(t), 64)
			if err != nil {
				return nil, fmt.Errorf("must be a number, got %q", t)
			}
			return f, nil
		}
		return nil, fmt.Errorf("must be a number, got %T", v)
	}
	return nil, fmt.Errorf("unknown type %q", typ)
}

// checkRange enforces a parameter's min/max/choices on a coerced value.
func checkRange(p Param, v any) error {
	var f float64
	switch t := v.(type) {
	case int:
		f = float64(t)
	case float64:
		f = t
	case string:
		if len(p.Choices) > 0 {
			for _, c := range p.Choices {
				if c == t {
					return nil
				}
			}
			return fmt.Errorf("%q is not one of %v", t, p.Choices)
		}
		return nil
	default:
		return nil
	}
	if p.Min != nil && f < *p.Min {
		return fmt.Errorf("%v is below min %v", v, *p.Min)
	}
	if p.Max != nil && f > *p.Max {
		return fmt.Errorf("%v is above max %v", v, *p.Max)
	}
	return nil
}

// Bind validates caller-supplied arguments against the declared
// parameters and returns the full bound map (defaults filled in).
// Unknown argument names are rejected — a typo must not silently sweep
// the default grid.
func (d *Definition) Bind(args map[string]any) (map[string]any, error) {
	byName := make(map[string]*Param, len(d.Params))
	for i := range d.Params {
		byName[d.Params[i].Name] = &d.Params[i]
	}
	for name := range args {
		if _, ok := byName[name]; !ok {
			return nil, fmt.Errorf("sweepdef: %s: unknown parameter %q (declared: %s)", d.Name, name, d.paramNames())
		}
	}
	bound := make(map[string]any, len(d.Params))
	for _, p := range d.Params {
		v, supplied := args[p.Name]
		if !supplied {
			bound[p.Name] = p.Default
			continue
		}
		cv, err := coerce(p.Type, v)
		if err != nil {
			return nil, fmt.Errorf("sweepdef: %s: parameter %q: %v", d.Name, p.Name, err)
		}
		if err := checkRange(p, cv); err != nil {
			return nil, fmt.Errorf("sweepdef: %s: parameter %q: %v", d.Name, p.Name, err)
		}
		bound[p.Name] = cv
	}
	return bound, nil
}

func (d *Definition) paramNames() string {
	if len(d.Params) == 0 {
		return "none"
	}
	names := make([]string, len(d.Params))
	for i, p := range d.Params {
		names[i] = p.Name
	}
	return strings.Join(names, ", ")
}

// placeholderRe matches "{param}" templates inside axis entries.
var placeholderRe = regexp.MustCompile(`\{([a-z][a-z0-9_]*)\}`)

// substitute resolves every "{param}" placeholder in s against the bound
// map, formatting non-string values with %v.
func substitute(s string, bound map[string]any) (string, error) {
	var badName string
	out := placeholderRe.ReplaceAllStringFunc(s, func(m string) string {
		name := m[1 : len(m)-1]
		v, ok := bound[name]
		if !ok {
			if badName == "" {
				badName = name
			}
			return m
		}
		return fmt.Sprintf("%v", v)
	})
	if badName != "" {
		return "", fmt.Errorf("undeclared parameter %q", badName)
	}
	return out, nil
}

// resolveInt resolves an int-valued field that may be an int literal, a
// YAML number, or a "{param}" template. nil resolves to 0 (the field's
// "keep the server default" value).
func resolveInt(field string, v any, bound map[string]any) (int, error) {
	switch t := v.(type) {
	case nil:
		return 0, nil
	case float64:
		if t != math.Trunc(t) {
			return 0, fmt.Errorf("'%s' must be an integer, got %v", field, t)
		}
		return int(t), nil
	case int:
		return t, nil
	case string:
		s, err := substitute(t, bound)
		if err != nil {
			return 0, fmt.Errorf("'%s': %v", field, err)
		}
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil {
			return 0, fmt.Errorf("'%s' must resolve to an integer, got %q", field, s)
		}
		return n, nil
	}
	return 0, fmt.Errorf("'%s' must be an integer or \"{param}\" template, got %T", field, v)
}

// Compile binds args (see Bind) and expands the definition into its
// request grid: the cross product of the resolved axes, with budgets and
// workload shaping applied to every request. The scenario and
// system_macros axes default to one empty/unset entry.
func (d *Definition) Compile(args map[string]any) ([]api.EvalRequest, error) {
	bound, err := d.Bind(args)
	if err != nil {
		return nil, err
	}
	resolveAxis := func(name string, in []string) ([]string, error) {
		out := make([]string, len(in))
		for i, s := range in {
			r, err := substitute(s, bound)
			if err != nil {
				return nil, fmt.Errorf("sweepdef: %s: axis %s: %v", d.Name, name, err)
			}
			if r == "" {
				return nil, fmt.Errorf("sweepdef: %s: axis %s: entry %d resolves to an empty string", d.Name, name, i+1)
			}
			out[i] = r
		}
		return out, nil
	}
	macroAxis, err := resolveAxis("macros", d.Macros)
	if err != nil {
		return nil, err
	}
	netAxis, err := resolveAxis("networks", d.Networks)
	if err != nil {
		return nil, err
	}
	scenarioAxis, err := resolveAxis("scenarios", d.Scenarios)
	if err != nil {
		return nil, err
	}
	for _, sc := range scenarioAxis {
		if !KnownScenario(sc) {
			return nil, fmt.Errorf("sweepdef: %s: unknown scenario %q (have %s)", d.Name, sc, strings.Join(ScenarioNames(), ", "))
		}
	}
	sysAxis := make([]int, 0, len(d.SystemMacros))
	for i, raw := range d.SystemMacros {
		n, err := resolveInt(fmt.Sprintf("axes.system_macros[%d]", i+1), raw, bound)
		if err != nil {
			return nil, fmt.Errorf("sweepdef: %s: %v", d.Name, err)
		}
		if n < 1 {
			return nil, fmt.Errorf("sweepdef: %s: axes.system_macros entries must be >= 1, got %d", d.Name, n)
		}
		sysAxis = append(sysAxis, n)
	}
	if len(scenarioAxis) == 0 {
		scenarioAxis = []string{""}
	}
	if len(sysAxis) == 0 {
		sysAxis = []int{0}
	}
	ints := map[string]int{}
	for _, f := range []struct {
		name string
		raw  any
		min  int
	}{
		{"budgets.max_mappings", d.MaxMappings, 0},
		{"layers", d.Layers, 0},
		{"seed", d.Seed, -1 << 30},
	} {
		n, err := resolveInt(f.name, f.raw, bound)
		if err != nil {
			return nil, fmt.Errorf("sweepdef: %s: %v", d.Name, err)
		}
		if n < f.min {
			return nil, fmt.Errorf("sweepdef: %s: '%s' must be >= %d, got %d", d.Name, f.name, f.min, n)
		}
		ints[f.name] = n
	}
	total := len(macroAxis) * len(netAxis) * len(scenarioAxis) * len(sysAxis)
	if total > MaxGridRequests {
		return nil, fmt.Errorf("sweepdef: %s: grid of %d requests exceeds the cap of %d", d.Name, total, MaxGridRequests)
	}
	reqs := make([]api.EvalRequest, 0, total)
	for _, m := range macroAxis {
		if _, err := macros.ByName(m); err != nil {
			return nil, fmt.Errorf("sweepdef: %s: %v", d.Name, err)
		}
		for _, n := range netAxis {
			if _, err := workload.ByName(n); err != nil {
				return nil, fmt.Errorf("sweepdef: %s: %v", d.Name, err)
			}
			for _, sc := range scenarioAxis {
				for _, sm := range sysAxis {
					reqs = append(reqs, api.EvalRequest{
						Macro:        m,
						Network:      n,
						Scenario:     sc,
						SystemMacros: sm,
						Layers:       ints["layers"],
						MaxMappings:  ints["budgets.max_mappings"],
						Seed:         int64(ints["seed"]),
					})
				}
			}
		}
	}
	return reqs, nil
}

// Validate checks the definition end to end by compiling it with every
// parameter at its default: axis names must resolve to known macros,
// networks, and scenarios, budgets to integers in range, and the grid
// must be non-empty and bounded. Parse calls it, so a loaded definition
// is always runnable unparameterized.
func (d *Definition) Validate() error {
	if _, err := d.Compile(nil); err != nil {
		// Attribute the failure to a source line where one is findable.
		return errf(d.File, lineOf(d.text, "axes"), "%v", err)
	}
	return nil
}

// Info renders the definition's listing entry: identity, parameter
// schema, and the grid size at defaults.
func (d *Definition) Info() api.ExperimentInfo {
	info := api.ExperimentInfo{
		Name:        d.Name,
		Description: d.Description,
		Source:      "sweep",
		File:        filepath.Base(d.File),
	}
	if reqs, err := d.Compile(nil); err == nil {
		info.Requests = len(reqs)
	}
	for _, p := range d.Params {
		info.Params = append(info.Params, api.ExperimentParam{
			Name:        p.Name,
			Type:        p.Type,
			Description: p.Description,
			Default:     p.Default,
			Min:         p.Min,
			Max:         p.Max,
			Choices:     p.Choices,
		})
	}
	return info
}

// ScenarioNames lists the full-system scenario names a definition may
// reference, as system.Scenario.String prints them.
func ScenarioNames() []string {
	return []string{
		system.AllDRAM.String(),
		system.WeightStationary.String(),
		system.OnChipIO.String(),
	}
}

// KnownScenario reports whether name is a valid scenario axis entry.
func KnownScenario(name string) bool {
	for _, s := range ScenarioNames() {
		if s == name {
			return true
		}
	}
	return false
}

// Set is a loaded directory of definitions, name-addressable.
type Set struct {
	defs   []*Definition
	byName map[string]*Definition
}

// NewSet builds a set from parsed definitions, rejecting duplicates.
func NewSet(defs []*Definition) (*Set, error) {
	s := &Set{byName: make(map[string]*Definition, len(defs))}
	for _, d := range defs {
		if prev, ok := s.byName[d.Name]; ok {
			return nil, fmt.Errorf("sweepdef: duplicate definition %q (%s and %s)", d.Name, prev.File, d.File)
		}
		s.byName[d.Name] = d
		s.defs = append(s.defs, d)
	}
	sort.Slice(s.defs, func(i, j int) bool { return s.defs[i].Name < s.defs[j].Name })
	return s, nil
}

// Load reads and parses one definition file.
func Load(path string) (*Definition, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("sweepdef: %w", err)
	}
	return Parse(path, string(data))
}

// LoadDir loads every *.yaml / *.yml file in dir into a Set. The
// directory must exist and hold at least one definition; any broken file
// fails the whole load (validate-first: a serving registry is swapped
// atomically or not at all).
func LoadDir(dir string) (*Set, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("sweepdef: %w", err)
	}
	var defs []*Definition
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		ext := filepath.Ext(e.Name())
		if ext != ".yaml" && ext != ".yml" {
			continue
		}
		d, err := Load(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		defs = append(defs, d)
	}
	if len(defs) == 0 {
		return nil, fmt.Errorf("sweepdef: no *.yaml definitions in %s", dir)
	}
	return NewSet(defs)
}

// Len reports the number of definitions in the set.
func (s *Set) Len() int {
	if s == nil {
		return 0
	}
	return len(s.defs)
}

// Get resolves a definition by name.
func (s *Set) Get(name string) (*Definition, bool) {
	if s == nil {
		return nil, false
	}
	d, ok := s.byName[name]
	return d, ok
}

// All lists the definitions sorted by name.
func (s *Set) All() []*Definition {
	if s == nil {
		return nil
	}
	return s.defs
}

// Names lists the definition names in sorted order.
func (s *Set) Names() []string {
	if s == nil {
		return nil
	}
	out := make([]string, len(s.defs))
	for i, d := range s.defs {
		out[i] = d.Name
	}
	return out
}

// Infos renders every definition's listing entry, sorted by name.
func (s *Set) Infos() []api.ExperimentInfo {
	if s == nil {
		return nil
	}
	out := make([]api.ExperimentInfo, len(s.defs))
	for i, d := range s.defs {
		out[i] = d.Info()
	}
	return out
}
