package mapping_test

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/macros"
	"repro/internal/mapper"
	"repro/internal/mapping"
	"repro/internal/spec"
	"repro/internal/workload"
)

// FuzzAnalyzeMatchesScan checks the per-level folds against the per-loop
// scans they replaced: on the mapper's draws for a built-in macro and a
// zoo layer, chosen by the fuzzed indices, AnalyzeLoaded's Counts must
// equal AnalyzeByScan's field for field, the Scratch being reused from
// candidate to candidate as a search reuses it. Every other candidate
// is counted the way a bounded search counts it, AnalyzeLevel0 first:
// its level-0 entries and totals must equal the scans' already, and the
// AnalyzeLoaded that completes them the scans' in full. The seed corpus
// covers every built-in macro and every zoo network.
func FuzzAnalyzeMatchesScan(f *testing.F) {
	networks := workload.Names()
	for mi := range digestMacros {
		for ni := range networks {
			f.Add(uint8(mi), uint8(ni), uint16(3*mi+ni), int64(mi*len(networks)+ni))
		}
	}
	f.Fuzz(func(t *testing.T, macro, network uint8, layer uint16, seed int64) {
		arch, err := macros.ByName(digestMacros[int(macro)%len(digestMacros)])
		if err != nil {
			t.Fatal(err)
		}
		net, err := workload.ByName(networks[int(network)%len(networks)])
		if err != nil {
			t.Fatal(err)
		}
		l := net.Layers[int(layer)%len(net.Layers)]
		sliced, err := arch.SlicedEinsum(l.Op)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := mapping.NewPlan(arch.Levels, sliced)
		if err != nil {
			t.Fatal(err)
		}
		cands, err := mapper.Sample(arch.Levels, sliced, arch.MapperOptions(32, seed))
		if err != nil {
			t.Fatal(err)
		}
		s := new(mapping.Scratch)
		for i, m := range cands {
			if err := plan.Load(m, s); err != nil {
				t.Fatalf("%s %s: %v", arch.Name, m, err)
			}
			want := mapping.AnalyzeByScan(plan, s)
			if i%2 == 1 {
				c := plan.AnalyzeLevel0(s)
				if arch.Levels[0].Kind == spec.StorageLevel && c.PerLevel[0] != want.PerLevel[0] ||
					c.MACs != want.MACs || c.ActualMACs != want.ActualMACs || c.Cycles != want.Cycles ||
					c.Instances != want.Instances || c.Utilization != want.Utilization ||
					!slices.Equal(c.MappedOutside, want.MappedOutside) {
					t.Fatalf("%s %s %s: level 0\nfolds %+v\nscans %+v", arch.Name, l.Name, m, *c, *want)
				}
			}
			got := plan.AnalyzeLoaded(s)
			if !reflect.DeepEqual(*got, *want) {
				t.Fatalf("%s %s %s:\nfolds %+v\nscans %+v", arch.Name, l.Name, m, *got, *want)
			}
		}
	})
}
