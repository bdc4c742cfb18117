package sweepdef

import (
	"fmt"
	"math/rand"
	"strings"
)

// Generate builds a random-but-valid sweep definition from seed by
// emitting YAML text and feeding it through the real Parse path — so a
// generated definition exercises the same parser, coercion, and
// validation as a checked-in file, and the property suite's contract is
// "every generated definition parses, validates, compiles, and
// evaluates". Grids are kept deliberately cheap (toy-scale networks,
// tiny mapping budgets) so a few hundred of them evaluate end-to-end in
// CI under -race. The same seed always yields the same definition.
func Generate(seed int64) (*Definition, string, error) {
	rng := rand.New(rand.NewSource(seed))

	// Cheap macros only: the full-system evaluators over "toy" stay
	// fast even when the grid crosses a few of them.
	macroPool := []string{"base", "macro-a", "macro-b", "digital"}
	scenarioPool := ScenarioNames()

	pick := func(pool []string, n int) []string {
		idx := rng.Perm(len(pool))[:n]
		out := make([]string, n)
		for i, j := range idx {
			out[i] = pool[j]
		}
		return out
	}

	macros := pick(macroPool, 1+rng.Intn(2))
	scenarios := pick(scenarioPool, 1+rng.Intn(len(scenarioPool)))
	sysMacros := []string{"1"}
	if rng.Intn(2) == 0 {
		sysMacros = append(sysMacros, "2")
	}

	mappings := 2 + rng.Intn(5)   // 2..6
	layers := rng.Intn(3)         // 0..2
	evalSeed := rng.Intn(1 << 16) // deterministic per definition

	var b strings.Builder
	fmt.Fprintf(&b, "name: gen-%08x\n", uint32(seed))
	fmt.Fprintf(&b, "description: generated property-test definition (seed %d)\n", seed)

	// Sometimes declare parameters and reference them from the axes and
	// budgets, so templating and coercion stay on the tested path. The
	// defaults keep the grid cheap; the property suite compiles with no
	// arguments, so defaults are what actually runs.
	useNetParam := rng.Intn(2) == 0
	useBudgetParam := rng.Intn(2) == 0
	if useNetParam || useBudgetParam {
		b.WriteString("params:\n")
		if useNetParam {
			b.WriteString("  - name: net\n")
			b.WriteString("    type: string\n")
			b.WriteString("    default: toy\n")
			b.WriteString("    choices: [toy]\n")
		}
		if useBudgetParam {
			b.WriteString("  - name: mappings\n")
			b.WriteString("    type: int\n")
			fmt.Fprintf(&b, "    default: %d\n", mappings)
			b.WriteString("    min: 1\n")
			b.WriteString("    max: 16\n")
		}
	}

	b.WriteString("axes:\n")
	fmt.Fprintf(&b, "  macros: [%s]\n", strings.Join(macros, ", "))
	if useNetParam {
		b.WriteString("  networks: [\"{net}\"]\n")
	} else {
		b.WriteString("  networks: [toy]\n")
	}
	fmt.Fprintf(&b, "  scenarios: [%s]\n", strings.Join(scenarios, ", "))
	fmt.Fprintf(&b, "  system_macros: [%s]\n", strings.Join(sysMacros, ", "))

	b.WriteString("budgets:\n")
	if useBudgetParam {
		b.WriteString("  max_mappings: \"{mappings}\"\n")
	} else {
		fmt.Fprintf(&b, "  max_mappings: %d\n", mappings)
	}
	fmt.Fprintf(&b, "layers: %d\n", layers)
	fmt.Fprintf(&b, "seed: %d\n", evalSeed)

	text := b.String()
	def, err := Parse(fmt.Sprintf("gen-%08x.yaml", uint32(seed)), text)
	if err != nil {
		return nil, text, fmt.Errorf("sweepdef: Generate(%d) produced an invalid definition: %w", seed, err)
	}
	return def, text, nil
}
