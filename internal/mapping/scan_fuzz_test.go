package mapping_test

import (
	"reflect"
	"testing"

	"repro/internal/macros"
	"repro/internal/mapper"
	"repro/internal/mapping"
	"repro/internal/workload"
)

// FuzzAnalyzeMatchesScan checks the per-level folds against the per-loop
// scans they replaced: on the mapper's draws for a built-in macro and a
// zoo layer, chosen by the fuzzed indices, AnalyzeLoaded's Counts must
// equal AnalyzeByScan's field for field, the Scratch being reused from
// candidate to candidate as a search reuses it. The seed corpus covers
// every built-in macro and every zoo network.
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
		for _, m := range cands {
			if err := plan.Load(m, s); err != nil {
				t.Fatalf("%s %s: %v", arch.Name, m, err)
			}
			got, want := plan.AnalyzeLoaded(s), mapping.AnalyzeByScan(plan, s)
			if !reflect.DeepEqual(*got, *want) {
				t.Fatalf("%s %s %s:\nfolds %+v\nscans %+v", arch.Name, l.Name, m, *got, *want)
			}
		}
	})
}
