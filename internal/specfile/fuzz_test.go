package specfile

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/workload"
)

// modelessTransitSpec binds a memory class to a transit level: it parses
// and validates, and once crashed layer preparation with a nil model.
const modelessTransitSpec = `name: p
node_nm: 22
hierarchy:
  - component: buf
    class: sram-buffer
    coalesce: [Inputs]
  - container: c
    children:
      - container: r
        children:
          - component: A
            class: sram-cell
            compute: true
`

// FuzzSpecfileParse drives inline spec text — the bytes a /v1/evaluate
// or /v1/sweep client controls — through parsing, engine compilation and
// a small network evaluation. Any stage may reject the input; none may
// panic.
func FuzzSpecfileParse(f *testing.F) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "specs", "*.yaml"))
	if err != nil {
		f.Fatal(err)
	}
	for _, p := range paths {
		text, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(text))
	}
	f.Add(modelessTransitSpec)
	f.Fuzz(func(t *testing.T, text string) {
		arch, err := Parse(text)
		if err != nil {
			return
		}
		eng, err := core.NewEngine(arch)
		if err != nil {
			return
		}
		_, _ = eng.EvaluateNetworkOptsCtx(context.Background(), workload.Toy(), core.SearchOptions{MaxMappings: 2})
	})
}
