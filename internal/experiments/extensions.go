package experiments

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/macros"
	"repro/internal/report"
	"repro/internal/workload"
)

// Extension experiments beyond the paper's figures: the device-swap
// capability (the NVMExplorer plug-in role, §III-C2) and the ADC-sharing
// knob (the column-mux design choice NeuroSim bakes in).

// Devices sweeps the Base macro across memory-cell device families at a
// fixed architecture, the paper's "varied device technologies" capability.
func Devices(o Options) ([]*report.Table, error) {
	size := 128
	if o.Fast {
		size = 32
	}
	net := o.subset(workload.ResNet18(), 3)
	t := report.NewTable("Extension: device families under one architecture (Base macro)",
		"device", "fJ/MAC", "TOPS/W", "GOPS", "cell area share")
	for _, dev := range []string{"reram", "sram", "stt", "edram"} {
		arch, err := macros.Base(macros.Config{Rows: size, Cols: size, Device: dev})
		if err != nil {
			return nil, err
		}
		eng, err := core.NewEngine(arch)
		if err != nil {
			return nil, err
		}
		res, err := eng.EvaluateNetworkOptsCtx(context.Background(), net, core.SearchOptions{
			MaxMappings: o.mappings(), Seed: o.Seed})
		if err != nil {
			return nil, err
		}
		// Cell share of area.
		var cellArea float64
		areas := eng.AreaBreakdown()
		for i := range arch.Levels {
			if arch.Levels[i].Name == "cell" {
				cellArea = areas[i]
			}
		}
		t.AddRow(dev,
			report.Num(res.EnergyPerMAC()*1e15),
			report.Num(res.TOPSPerW()),
			report.Num(res.GOPS()),
			report.Pct(cellArea/eng.Area()))
	}
	t.Note = "same hierarchy, mapper, and workload; only the device model swaps"
	return []*report.Table{t}, nil
}

// ADCShare sweeps the column-mux depth: sharing one ADC across more
// columns trades throughput (serialized strobes) for area.
func ADCShare(o Options) ([]*report.Table, error) {
	size := 128
	if o.Fast {
		size = 32
	}
	t := report.NewTable("Extension: ADC sharing (columns per converter)",
		"columns/ADC", "TOPS/W", "GOPS", "area (mm^2)")
	for _, share := range []int{1, 2, 4, 8} {
		arch, err := macros.Base(macros.Config{Rows: size, Cols: size, ADCShare: share})
		if err != nil {
			return nil, err
		}
		r, err := evalMaxUtil(arch, o)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("%d", share),
			report.Num(r.TOPSPerW()), report.Num(r.GOPS()), report.Num(r.AreaUm2/1e6))
	}
	t.Note = "more sharing: smaller ADC area, proportionally lower throughput"
	return []*report.Table{t}, nil
}

// Beyond compares a CiM macro against the paper's §VII "beyond CiM"
// targets — a conventional digital PE array and a photonic accelerator —
// on one workload, all under the same specification and mapper.
func Beyond(o Options) ([]*report.Table, error) {
	net := o.subset(workload.ResNet18(), 3)
	t := report.NewTable("Extension: beyond CiM (one methodology, three paradigms)",
		"architecture", "fJ/MAC", "TOPS/W", "GOPS", "area (mm^2)")
	archs := []struct {
		name  string
		build func(macros.Config) (*core.Arch, error)
		cfg   macros.Config
	}{
		{"CiM (Macro D)", macros.D, macros.Config{}},
		{"digital PE array", macros.DigitalAccelerator, macros.Config{}},
		{"photonic mesh", macros.Photonic, macros.Config{}},
	}
	for _, a := range archs {
		if o.Fast {
			a.cfg.Rows, a.cfg.Cols = 16, 16
		}
		arch, err := a.build(a.cfg)
		if err != nil {
			return nil, err
		}
		res, err := evalNet(arch, net, o)
		if err != nil {
			return nil, err
		}
		t.AddRow(a.name,
			report.Num(res.EnergyPerMAC()*1e15),
			report.Num(res.TOPSPerW()),
			report.Num(res.GOPS()),
			report.Num(res.AreaUm2/1e6))
	}
	t.Note = "same container-hierarchy spec, mapper, and workload pipeline across all three"
	return []*report.Table{t}, nil
}
