package sweepdef

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const validDoc = `name: fig15-scenarios
description: Macro-B full-system scenario grid
params:
  - name: network
    type: string
    description: workload to sweep
    default: resnet18
    choices: [resnet18, vit-base, gpt2]
  - name: mappings
    type: int
    default: 30
    min: 1
    max: 500
axes:
  macros: [macro-b]
  networks: ["{network}"]
  scenarios: [all-tensors-from-dram, weight-stationary]
  system_macros: [1, 4]
budgets:
  max_mappings: "{mappings}"
layers: 1
seed: 7
`

func TestParseValidDefinition(t *testing.T) {
	d, err := Parse("fig15.yaml", validDoc)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if d.Name != "fig15-scenarios" {
		t.Fatalf("name = %q", d.Name)
	}
	if len(d.Params) != 2 || d.Params[0].Name != "network" || d.Params[1].Type != "int" {
		t.Fatalf("params = %+v", d.Params)
	}
	if got := d.Params[1].Default; got != 30 {
		t.Fatalf("int default = %v (%T), want 30", got, got)
	}
	if d.Params[1].Min == nil || *d.Params[1].Min != 1 || *d.Params[1].Max != 500 {
		t.Fatalf("range = %v..%v", d.Params[1].Min, d.Params[1].Max)
	}
}

func TestCompileCrossProductAtDefaults(t *testing.T) {
	d, err := Parse("fig15.yaml", validDoc)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	reqs, err := d.Compile(nil)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	// 1 macro x 1 network x 2 scenarios x 2 system-macro counts.
	if len(reqs) != 4 {
		t.Fatalf("grid = %d requests, want 4", len(reqs))
	}
	first := reqs[0]
	if first.Macro != "macro-b" || first.Network != "resnet18" || first.MaxMappings != 30 {
		t.Fatalf("first request = %+v", first)
	}
	if first.Layers != 1 || first.Seed != 7 {
		t.Fatalf("budgets not threaded: %+v", first)
	}
}

func TestCompileBindsAndCoercesParams(t *testing.T) {
	d, err := Parse("fig15.yaml", validDoc)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	// String "60" coerces to int 60 (the CLI binds -p name=value strings).
	reqs, err := d.Compile(map[string]any{"network": "gpt2", "mappings": "60"})
	if err != nil {
		t.Fatalf("Compile(bound): %v", err)
	}
	if reqs[0].Network != "gpt2" || reqs[0].MaxMappings != 60 {
		t.Fatalf("binding not applied: %+v", reqs[0])
	}
}

func TestCompileRejectsBadBindings(t *testing.T) {
	d, err := Parse("fig15.yaml", validDoc)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	for name, args := range map[string]map[string]any{
		"unknown parameter":  {"nope": 1},
		"choice violation":   {"network": "alexnet"},
		"below min":          {"mappings": 0},
		"above max":          {"mappings": 501},
		"type mismatch":      {"mappings": "lots"},
		"non-integral float": {"mappings": 2.5},
	} {
		if _, err := d.Compile(args); err == nil {
			t.Errorf("%s: Compile(%v) succeeded, want error", name, args)
		}
	}
}

func TestParseErrorsCarryFileAndLine(t *testing.T) {
	cases := map[string]string{
		"missing name": `axes:
  macros: [base]
  networks: [toy]
`,
		"unknown top key": `name: x
bogus: 1
axes:
  macros: [base]
  networks: [toy]
`,
		"param without default": `name: x
params:
  - name: p
    type: int
axes:
  macros: [base]
  networks: [toy]
`,
		"unknown axis": `name: x
axes:
  macros: [base]
  networks: [toy]
  planets: [mars]
`,
		"unknown macro": `name: x
axes:
  macros: [warp-core]
  networks: [toy]
`,
		"unknown scenario": `name: x
axes:
  macros: [base]
  networks: [toy]
  scenarios: [zero-copy]
`,
		"duplicate param": `name: x
params:
  - name: p
    type: int
    default: 1
  - name: p
    type: int
    default: 2
axes:
  macros: [base]
  networks: [toy]
`,
		"undeclared placeholder": `name: x
axes:
  macros: [base]
  networks: ["{net}"]
`,
		"removed budget sample_shards": `name: x
axes:
  macros: [base]
  networks: [toy]
budgets:
  sample_shards: 2
`,
		"removed budget search_workers": `name: x
axes:
  macros: [base]
  networks: [toy]
budgets:
  max_mappings: 4
  search_workers: 2
`,
		"removed key priority": `name: x
priority: batch
axes:
  macros: [base]
  networks: [toy]
`,
	}
	// Cases whose message is pinned beyond the file/line attribution.
	wantMsg := map[string]string{
		"unknown axis":                  `bad.yaml: line 5: unknown axis "planets"`,
		"removed budget sample_shards":  `bad.yaml: line 6: unknown budget "sample_shards"`,
		"removed budget search_workers": `bad.yaml: line 7: unknown budget "search_workers"`,
		"removed key priority":          `bad.yaml: line 2: unknown key "priority"`,
	}
	for name, doc := range cases {
		_, err := Parse("bad.yaml", doc)
		if err == nil {
			t.Errorf("%s: Parse succeeded, want error", name)
			continue
		}
		msg := err.Error()
		if !strings.Contains(msg, "bad.yaml") || !strings.Contains(msg, "line ") {
			t.Errorf("%s: error %q lacks file/line attribution", name, msg)
		}
		if want := wantMsg[name]; !strings.Contains(msg, want) {
			t.Errorf("%s: error %q does not contain %q", name, msg, want)
		}
	}
}

// TestParseReportsFirstUnknownKey: of several unknown keys in one block,
// Parse reports the first in the file, at its own line, on every call
// (the blocks are maps, whose iteration order varies between calls).
func TestParseReportsFirstUnknownKey(t *testing.T) {
	cases := map[string]string{
		`line 3: unknown key "zeta"`: `name: x
description: d
zeta: 1
alpha: 2
axes:
  macros: [base]
  networks: [toy]
`,
		`line 5: unknown axis "zeta"`: `name: x
axes:
  macros: [base]
  networks: [toy]
  zeta: [a]
  alpha: [b]
  mid: [c]
`,
		`line 6: unknown budget "zeta"`: `name: x
axes:
  macros: [base]
  networks: [toy]
budgets:
  zeta: 1
  max_mappings: 4
  alpha: 2
  mid: 3
`,
	}
	for want, doc := range cases {
		for range 20 {
			_, err := Parse("bad.yaml", doc)
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("error %v, want one containing %q", err, want)
			}
		}
	}
}

func TestCompileRejectsOversizedGrid(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("name: huge\naxes:\n  macros: [base]\n  networks: [toy]\n  system_macros: [")
	for i := 0; i < MaxGridRequests+1; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString("1")
	}
	sb.WriteString("]\n")
	if _, err := Parse("huge.yaml", sb.String()); err == nil || !strings.Contains(err.Error(), "exceeds the cap") {
		t.Fatalf("oversized grid error = %v", err)
	}
}

func TestLoadDirRejectsBrokenFile(t *testing.T) {
	dir := t.TempDir()
	ok := filepath.Join(dir, "ok.yaml")
	if err := os.WriteFile(ok, []byte(validDoc), 0o644); err != nil {
		t.Fatal(err)
	}
	set, err := LoadDir(dir)
	if err != nil {
		t.Fatalf("LoadDir(valid): %v", err)
	}
	if set.Len() != 1 || set.Names()[0] != "fig15-scenarios" {
		t.Fatalf("set = %v", set.Names())
	}
	if err := os.WriteFile(filepath.Join(dir, "broken.yml"), []byte("name: [\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadDir(dir); err == nil {
		t.Fatal("LoadDir with a broken file succeeded, want error")
	}
}

func TestNewSetRejectsDuplicateNames(t *testing.T) {
	a, err := Parse("a.yaml", validDoc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Parse("b.yaml", validDoc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewSet([]*Definition{a, b}); err == nil {
		t.Fatal("NewSet with duplicate names succeeded, want error")
	}
}

func TestGenerateIsDeterministicAndValid(t *testing.T) {
	d1, text1, err := Generate(42)
	if err != nil {
		t.Fatalf("Generate(42): %v", err)
	}
	_, text2, err := Generate(42)
	if err != nil {
		t.Fatalf("Generate(42) again: %v", err)
	}
	if text1 != text2 {
		t.Fatalf("Generate(42) not deterministic:\n%s\n---\n%s", text1, text2)
	}
	if d1.Name == "" {
		t.Fatal("generated definition has no name")
	}
	for seed := int64(0); seed < 100; seed++ {
		d, _, err := Generate(seed)
		if err != nil {
			t.Fatalf("Generate(%d): %v", seed, err)
		}
		reqs, err := d.Compile(nil)
		if err != nil {
			t.Fatalf("Generate(%d).Compile: %v", seed, err)
		}
		if len(reqs) == 0 || len(reqs) > MaxGridRequests {
			t.Fatalf("Generate(%d) grid size %d out of bounds", seed, len(reqs))
		}
	}
}

// FuzzParse asserts the parser's contract on arbitrary documents: it
// never panics, and every rejection carries the source file (and, for
// structural errors, a line number) so tooling can point at the problem.
func FuzzParse(f *testing.F) {
	f.Add(validDoc)
	f.Add("name: x\naxes:\n  macros: [base]\n  networks: [toy]\n")
	f.Add("")
	f.Add("name: [\n")
	f.Add("name: x\nparams:\n  - name: p\n    type: int\n    default: {q}\n")
	f.Add("name: \"\x00\"\naxes: {}\n")
	f.Add("axes:\n  system_macros: [\"{p}\"]\n")
	f.Fuzz(func(t *testing.T, doc string) {
		d, err := Parse("fuzz.yaml", doc)
		if err != nil {
			if !strings.Contains(err.Error(), "fuzz.yaml") {
				t.Fatalf("error %q does not name the source file", err)
			}
			return
		}
		// Accepted definitions must round-trip through the rest of the
		// surface without panicking.
		_ = d.Info()
		if _, err := d.Compile(nil); err != nil {
			t.Fatalf("Parse accepted a definition Compile rejects: %v", err)
		}
	})
}
