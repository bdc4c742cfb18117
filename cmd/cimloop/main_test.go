package main

import (
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestRunList(t *testing.T) {
	if err := run([]string{"list"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunMacros(t *testing.T) {
	if err := run([]string{"macros"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunExperimentFast(t *testing.T) {
	if err := run([]string{"run", "table3", "-fast"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"run", "fig4", "-fast", "-csv"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunErrors(t *testing.T) {
	cases := [][]string{
		nil,
		{"bogus"},
		{"run"},
		{"run", "nope", "-fast"},
		{"spec"},
		{"spec", "/does/not/exist.yaml"},
	}
	for _, c := range cases {
		if err := run(c); err == nil {
			t.Errorf("run(%v): want error", c)
		}
	}
}

func TestRunHelp(t *testing.T) {
	if err := run([]string{"help"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunSpec(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "macro.yaml")
	spec := `
name: cli-test
node_nm: 45
hierarchy:
  - component: buffer
    class: sram-buffer
    temporal_reuse: [Inputs, Weights, Outputs]
  - container: columns
    mesh_x: 8
    spatial_reuse: [Inputs]
    children:
      - component: adc
        class: adc
        no_coalesce: [Outputs]
      - container: rows
        mesh_y: 8
        spatial_reuse: [Outputs]
        children:
          - component: cell
            class: sram-cell
            compute: true
            temporal_reuse: [Weights]
`
	if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"spec", path, "-network", "toy", "-mappings", "4"}); err != nil {
		t.Fatal(err)
	}
	// Bad spec content errors cleanly.
	bad := filepath.Join(dir, "bad.yaml")
	if err := os.WriteFile(bad, []byte("name: x\nnode_nm: 3\nhierarchy: []"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"spec", bad}); err == nil {
		t.Fatal("want error for bad spec")
	}
	// Unknown network errors cleanly.
	if err := run([]string{"spec", path, "-network", "nope"}); err == nil {
		t.Fatal("want error for unknown network")
	}
}

func TestRunServeFlagErrors(t *testing.T) {
	if err := run([]string{"serve", "-no-such-flag"}); err == nil {
		t.Fatal("bad serve flag must error")
	}
}

// TestRunServeRefusesBadAuth: a serve command that asks for auth it
// cannot have must exit with an error before it listens — never boot an
// open server. That covers the removed -tenants flag and a -token-file
// that is missing or empty.
func TestRunServeRefusesBadAuth(t *testing.T) {
	dir := t.TempDir()
	empty := filepath.Join(dir, "empty-token")
	if err := os.WriteFile(empty, []byte("\n"), 0o600); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"serve", "-addr", "127.0.0.1:0", "-tenants", "x"},
		{"serve", "-addr", "127.0.0.1:0", "-token-file", filepath.Join(dir, "missing")},
		{"serve", "-addr", "127.0.0.1:0", "-token-file", empty},
	} {
		done := make(chan error, 1)
		go func() { done <- run(args) }()
		select {
		case err := <-done:
			if err == nil {
				t.Errorf("run(%v) succeeded, want an error", args)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("run(%v) is serving; it must refuse to boot", args)
		}
	}
}
