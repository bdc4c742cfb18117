package experiments

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/circuits"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/enc"
	"repro/internal/macros"
	"repro/internal/mapper"
	"repro/internal/report"
	"repro/internal/spec"
	"repro/internal/tech"
	"repro/internal/tensor"
	"repro/internal/valuesim"
	"repro/internal/workload"
)

// Fig4 reproduces the motivation figure: DAC energy per convert across
// (DAC circuit, encoding, workload) combinations, showing a >2.5x
// data-value-dependence and that the best encoding differs per workload.
func Fig4(o Options) ([]*report.Table, error) {
	node, err := tech.ByNm(65)
	if err != nil {
		return nil, err
	}
	params := circuits.Params{Node: node}
	const bits = 8
	dacA, err := circuits.NewDAC(params, circuits.DACCapacitive, bits)
	if err != nil {
		return nil, err
	}
	dacB, err := circuits.NewDAC(params, circuits.DACResistive, bits)
	if err != nil {
		return nil, err
	}

	cnn := workload.ResNet18().Layers[4]     // unsigned sparse inputs
	transformer := workload.GPT2().Layers[0] // signed dense inputs
	workloads := []struct {
		name  string
		layer workload.Layer
	}{
		{"[CNN] unsigned sparse", cnn},
		{"[Transformer] signed dense", transformer},
	}
	encodings := []string{"differential", "offset"}

	t := report.NewTable("Fig. 4: DAC energy per convert (data-value-dependence)",
		"workload", "encoding", "DAC A (norm)", "DAC B (norm)")
	var minE = -1.0
	type cell struct{ a, b float64 }
	grid := map[string]cell{}
	for _, w := range workloads {
		// Signed encodings need signed levels. Unsigned CNN activations
		// occupy the non-negative half of the signed range (preserving
		// their zero-sparsity, which differential encoding exploits);
		// transformer activations are natively signed.
		quantBits := bits
		if !w.layer.Act.Signed {
			quantBits = bits - 1
		}
		signedPMF, err := w.layer.InputPMF(quantBits)
		if err != nil {
			return nil, err
		}
		for _, encName := range encodings {
			e, err := enc.ByName(encName, bits)
			if err != nil {
				return nil, err
			}
			rails, err := e.TransformPMF(signedPMF)
			if err != nil {
				return nil, err
			}
			var ea, eb float64
			for _, r := range rails {
				ma, err := dacA.MeanEnergy(circuits.Operands{Input: r})
				if err != nil {
					return nil, err
				}
				mb, err := dacB.MeanEnergy(circuits.Operands{Input: r})
				if err != nil {
					return nil, err
				}
				ea += ma
				eb += mb
			}
			grid[w.name+"/"+encName] = cell{ea, eb}
			for _, v := range []float64{ea, eb} {
				if minE < 0 || v < minE {
					minE = v
				}
			}
		}
	}
	maxRatio := 0.0
	for _, w := range workloads {
		for _, encName := range encodings {
			c := grid[w.name+"/"+encName]
			t.AddRow(w.name, encName, report.Num(c.a/minE), report.Num(c.b/minE))
			for _, v := range []float64{c.a / minE, c.b / minE} {
				if v > maxRatio {
					maxRatio = v
				}
			}
		}
	}
	t.Note = fmt.Sprintf("max/min energy ratio %.2fx (paper: >2.5x)", maxRatio)
	return []*report.Table{t}, nil
}

// fig6Arch builds the accuracy-study macro: value-dependent components
// dominate (capacitive DACs, ReRAM cells, value-aware ADC) so the
// statistical approximation is actually stressed.
func fig6Arch(o Options) (*core.Arch, error) {
	cfg := macros.Config{Rows: 64, Cols: 32, ValueAwareADC: true}
	if o.Fast {
		cfg.Rows, cfg.Cols = 32, 16
	}
	return macros.Base(cfg)
}

// Fig6 reproduces the accuracy study: per-ResNet18-layer full-macro energy
// error of the data-value-dependent statistical model vs. the value-level
// ground truth, against a fixed-energy model using network-global average
// distributions.
func Fig6(o Options) ([]*report.Table, error) {
	arch, err := fig6Arch(o)
	if err != nil {
		return nil, err
	}
	eng, err := core.NewEngine(arch)
	if err != nil {
		return nil, err
	}
	net := o.subset(workload.ResNet18(), 6)
	cfg := valuesim.Config{Steps: o.steps(), Seed: o.Seed + 17}

	// First pass: per-layer simulations, comparisons and empirical PMFs.
	var ins, ws []*dist.PMF
	var dvd []float64
	var cmps []*valuesim.Comparison
	for _, l := range net.Layers {
		cmp, err := valuesim.Compare(eng, l, cfg, nil, nil)
		if err != nil {
			return nil, fmt.Errorf("fig6 layer %s: %w", l.Name, err)
		}
		cmps = append(cmps, cmp)
		dvd = append(dvd, cmp.RelError)
		ins = append(ins, cmp.InPMF)
		ws = append(ws, cmp.WPMF)
	}
	avgIn, avgW, err := valuesim.AveragePMFs(ins, ws)
	if err != nil {
		return nil, err
	}
	// Second pass: the fixed-energy model against the same simulations.
	var fixed []float64
	for i, l := range net.Layers {
		cmp, err := cmps[i].WithPMFs(eng, l, avgIn, avgW)
		if err != nil {
			return nil, err
		}
		fixed = append(fixed, cmp.RelError)
	}

	t := report.NewTable("Fig. 6: full-macro energy error vs. value-level ground truth",
		"ResNet18 layer", "CiMLoop (data-value-dependent)", "non-data-value-dependent")
	sumD, maxD, sumF, maxF := 0.0, 0.0, 0.0, 0.0
	for i, l := range net.Layers {
		t.AddRow(l.Name, report.Pct(dvd[i]), report.Pct(fixed[i]))
		sumD += dvd[i]
		sumF += fixed[i]
		if dvd[i] > maxD {
			maxD = dvd[i]
		}
		if fixed[i] > maxF {
			maxF = fixed[i]
		}
	}
	n := float64(len(net.Layers))
	t.AddRow("Avg.", report.Pct(sumD/n), report.Pct(sumF/n))
	t.AddRow("Max.", report.Pct(maxD), report.Pct(maxF))
	t.Note = "paper: 3%/7% avg/max for CiMLoop vs 28%/70% for fixed-energy"
	return []*report.Table{t}, nil
}

// Table2 reproduces the modeling-speed comparison: (mappings x layers)/s
// for the value-level simulator vs. the statistical model at 1 and many
// mappings, single- and multi-core.
func Table2(o Options) ([]*report.Table, error) {
	arch, err := fig6Arch(o)
	if err != nil {
		return nil, err
	}
	eng, err := core.NewEngine(arch)
	if err != nil {
		return nil, err
	}
	layer := workload.ResNet18().Layers[5]
	manyMappings := 5000
	if o.Fast {
		manyMappings = 200
	}

	// Value-level simulator: one mapping (it has no mapper), one core.
	start := time.Now()
	if _, _, _, err := valuesim.Simulate(eng, layer, valuesim.Config{Steps: o.steps(), Seed: o.Seed}); err != nil {
		return nil, err
	}
	simRate := 1 / time.Since(start).Seconds()

	// Statistical model, 1 core, 1 mapping (includes per-layer setup).
	start = time.Now()
	ctx, err := eng.PrepareLayer(layer)
	if err != nil {
		return nil, err
	}
	greedy, err := eng.GreedyMapping(ctx)
	if err != nil {
		return nil, err
	}
	if _, err := eng.EvaluateMapping(ctx, greedy); err != nil {
		return nil, err
	}
	oneRate := 1 / time.Since(start).Seconds()

	// Statistical model, many mappings: setup amortizes (Algorithm 1).
	cands, err := mapper.Sample(arch.Levels, ctx.Sliced, arch.MapperOptions(manyMappings, o.Seed))
	if err != nil {
		return nil, err
	}
	start = time.Now()
	for _, m := range cands {
		if _, err := eng.EvaluateMapping(ctx, m); err != nil {
			return nil, err
		}
	}
	manyRate := float64(len(cands)) / time.Since(start).Seconds()

	// Multi-core: same work split across workers.
	workers := o.workers()
	start = time.Now()
	var wg sync.WaitGroup
	chunk := (len(cands) + workers - 1) / workers
	errCh := make(chan error, workers)
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > len(cands) {
			hi = len(cands)
		}
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for _, m := range cands[lo:hi] {
				if _, err := eng.EvaluateMapping(ctx, m); err != nil {
					errCh <- err
					return
				}
			}
		}(lo, hi)
	}
	wg.Wait()
	close(errCh)
	if err := <-errCh; err != nil {
		return nil, err
	}
	parRate := float64(len(cands)) / time.Since(start).Seconds()

	t := report.NewTable("Table II: modeling speed, (mappings x layers)/second",
		"model", "cores", "1 mapping", fmt.Sprintf("%d mappings", len(cands)))
	t.AddRow("value-level simulator (NeuroSim role)", "1", report.Num(simRate), "-")
	t.AddRow("CiMLoop statistical", "1", report.Num(oneRate), report.Num(manyRate))
	t.AddRow("CiMLoop statistical", fmt.Sprintf("%d", workers), "-", report.Num(parRate))
	t.Note = "paper: 0.07 (NeuroSim) vs 0.28/83 (1 core) and 2.25/1076 (16 cores)"
	return []*report.Table{t}, nil
}

// Table3 prints the parameterized attributes of Macros A-D.
func Table3(Options) ([]*report.Table, error) {
	t := report.NewTable("Table III: parameterized attributes of Macros A-D",
		"macro", "node", "device", "input bits", "weight bits", "array", "ADC bits")
	for _, r := range macros.TableIII() {
		t.AddRow(r.Macro, r.Node, r.Device, r.InputBits, r.WeightBits, r.Array, r.ADCBits)
	}
	return []*report.Table{t}, nil
}

// Fig7 validates energy efficiency and throughput across supply voltages
// for Macros A, B (small and large data values), and D.
func Fig7(o Options) ([]*report.Table, error) {
	t := report.NewTable("Fig. 7: energy efficiency & throughput vs. supply voltage",
		"macro", "supply (V)", "data", "TOPS/W", "GOPS")
	type sweep struct {
		name     string
		build    func(macros.Config) (*core.Arch, error)
		cfg      macros.Config
		voltages []float64
		data     []string // "", "small", "large"
	}
	sweeps := []sweep{
		{"A", macros.A, macros.Config{}, []float64{0.85, 1.2}, []string{""}},
		{"B", macros.B, macros.Config{}, []float64{0.6, 0.8}, []string{"small", "large"}},
		{"D", macros.D, macros.Config{}, []float64{0.7, 0.9, 1.1}, []string{""}},
	}
	for _, s := range sweeps {
		if o.Fast {
			s.cfg.Rows, s.cfg.Cols = 16, 16
			if s.name == "A" {
				s.cfg.Rows, s.cfg.Cols = 24, 24
			}
		}
		for _, v := range s.voltages {
			cfg := s.cfg
			cfg.Vdd = v
			arch, err := s.build(cfg)
			if err != nil {
				return nil, err
			}
			eng, err := core.NewEngine(arch)
			if err != nil {
				return nil, err
			}
			for _, data := range s.data {
				layer, err := maxUtilLayer(arch, data)
				if err != nil {
					return nil, err
				}
				r, _, err := eng.EvaluateLayerOptsCtx(context.Background(), layer, core.SearchOptions{MaxMappings: 2, Seed: o.Seed})
				if err != nil {
					return nil, err
				}
				label := data
				if label == "" {
					label = "-"
				}
				t.AddRow(s.name, report.Num(v), label, report.Num(r.TOPSPerW()), report.Num(r.GOPS()))
			}
		}
	}
	t.Note = "energy scales with V^2, frequency with the alpha-power law; Macro B energy is data-value-dependent"
	return []*report.Table{t}, nil
}

// maxUtilLayer returns a maximum-utilization layer matched to the arch's
// array, with optional small/large data value statistics.
func maxUtilLayer(arch *core.Arch, data string) (workload.Layer, error) {
	rows, cols := archArrayDims(arch)
	n, err := workload.MaxUtilization(rows, cols, 256)
	if err != nil {
		return workload.Layer{}, err
	}
	l := n.Layers[0]
	switch data {
	case "small":
		l.Act.Mean, l.Act.Sparsity = 0.08, 0.6
	case "large":
		l.Act.Mean, l.Act.Sparsity = 0.7, 0.0
		l.Act.Std = 0.15
	}
	return l, nil
}

// archArrayDims extracts (rows, cols) from an arch's spatial levels: rows
// are output-reduced meshes, everything else is columns.
func archArrayDims(arch *core.Arch) (rows, cols int) {
	rows, cols = 1, 1
	for i := range arch.Levels {
		lv := &arch.Levels[i]
		if lv.Kind != spec.SpatialLevel {
			continue
		}
		if lv.SpatialReuse[tensor.Output] {
			rows *= lv.Mesh
		} else {
			cols *= lv.Mesh
		}
	}
	return rows, cols
}

// Fig8 validates energy efficiency and throughput across input-bit counts
// for Macros B and C.
func Fig8(o Options) ([]*report.Table, error) {
	t := report.NewTable("Fig. 8: energy efficiency & throughput vs. input bits",
		"macro", "input bits", "TOPS/W", "GOPS")
	for _, bits := range []int{1, 2, 4, 8} {
		cfg := macros.Config{InputBits: bits, DACBits: minInt(4, bits)}
		if o.Fast {
			cfg.Rows, cfg.Cols = 16, 16
		}
		arch, err := macros.B(cfg)
		if err != nil {
			return nil, err
		}
		r, err := evalMaxUtil(arch, o)
		if err != nil {
			return nil, err
		}
		t.AddRow("B", fmt.Sprintf("%d", bits), report.Num(r.TOPSPerW()), report.Num(r.GOPS()))
	}
	for _, bits := range []int{1, 2, 4, 8} {
		cfg := macros.Config{InputBits: bits, DACBits: 1}
		if o.Fast {
			cfg.Rows, cfg.Cols = 16, 16
		}
		arch, err := macros.C(cfg)
		if err != nil {
			return nil, err
		}
		r, err := evalMaxUtil(arch, o)
		if err != nil {
			return nil, err
		}
		t.AddRow("C", fmt.Sprintf("%d", bits), report.Num(r.TOPSPerW()), report.Num(r.GOPS()))
	}
	t.Note = "fewer input bits -> fewer array activations per MAC -> higher TOPS/W, lower-resolution workloads"
	return []*report.Table{t}, nil
}

func evalMaxUtil(arch *core.Arch, o Options) (*core.Result, error) {
	eng, err := core.NewEngine(arch)
	if err != nil {
		return nil, err
	}
	layer, err := maxUtilLayer(arch, "")
	if err != nil {
		return nil, err
	}
	r, _, err := eng.EvaluateLayerOptsCtx(context.Background(), layer, core.SearchOptions{MaxMappings: 2, Seed: o.Seed})
	return r, err
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// Fig9 validates energy breakdowns: Macro C at 1/4/8 input bits and
// Macro D, as percent of total.
func Fig9(o Options) ([]*report.Table, error) {
	t := report.NewTable("Fig. 9: energy breakdown (percent of total)",
		"config", "component", "share")
	for _, bits := range []int{1, 4, 8} {
		cfg := macros.Config{InputBits: bits, DACBits: 1}
		if o.Fast {
			cfg.Rows, cfg.Cols = 16, 16
		}
		arch, err := macros.C(cfg)
		if err != nil {
			return nil, err
		}
		r, err := evalMaxUtil(arch, o)
		if err != nil {
			return nil, err
		}
		shares := levelShares(r, map[string]string{
			"adc": "ADC+Accumulate", "analog_accum": "ADC+Accumulate",
			"dac": "DAC", "cell": "Array", "buffer": "Control",
		})
		for _, b := range []string{"ADC+Accumulate", "DAC", "Array", "Control"} {
			t.AddRow(fmt.Sprintf("Macro C, %db inputs", bits), b, report.Pct(shares[b]))
		}
	}
	cfgD := macros.Config{}
	if o.Fast {
		cfgD.Rows, cfgD.Cols = 16, 16
	}
	archD, err := macros.D(cfgD)
	if err != nil {
		return nil, err
	}
	r, err := evalMaxUtil(archD, o)
	if err != nil {
		return nil, err
	}
	shares := levelShares(r, map[string]string{
		"dac": "DAC", "adc": "ADC", "mac": "CiM Array", "buffer": "Misc",
	})
	for _, b := range []string{"DAC", "ADC", "CiM Array", "Misc"} {
		t.AddRow("Macro D", b, report.Pct(shares[b]))
	}
	t.Note = "paper: ADC share of Macro C shrinks as more input bits amortize each convert"
	return []*report.Table{t}, nil
}

// levelShares maps level names into buckets and returns each bucket's
// share of total energy.
func levelShares(r *core.Result, buckets map[string]string) map[string]float64 {
	out := map[string]float64{}
	for _, le := range r.Levels {
		b, ok := buckets[le.Name]
		if !ok {
			b = "Misc"
		}
		out[b] += le.Total
	}
	for k := range out {
		out[k] /= r.Energy
	}
	return out
}

// Fig10 validates area breakdowns of Macros A-D as percent of total.
func Fig10(o Options) ([]*report.Table, error) {
	t := report.NewTable("Fig. 10: area breakdown (percent of total)",
		"macro", "component", "share")
	type m struct {
		name  string
		build func(macros.Config) (*core.Arch, error)
	}
	for _, mm := range []m{{"A", macros.A}, {"B", macros.B}, {"C", macros.C}, {"D", macros.D}} {
		cfg := macros.Config{}
		if o.Fast {
			cfg.Rows, cfg.Cols = 16, 16
			if mm.name == "A" {
				cfg.Rows, cfg.Cols, cfg.GroupCols = 24, 24, 3
			}
		}
		arch, err := mm.build(cfg)
		if err != nil {
			return nil, err
		}
		eng, err := core.NewEngine(arch)
		if err != nil {
			return nil, err
		}
		areas := eng.AreaBreakdown()
		total := eng.Area()
		buckets := map[string]float64{}
		for i, a := range areas {
			name := arch.Levels[i].Name
			switch name {
			case "adc":
				buckets["ADC"] += a
			case "dac", "drivers":
				buckets["DAC+Drivers"] += a
			case "cell", "mac":
				buckets["Array"] += a
			case "analog_adder", "analog_accum":
				buckets["Analog adder/accum"] += a
			case "shift_add":
				buckets["Digital postprocessing"] += a
			case "buffer":
				buckets["Buffer"] += a
			default:
				if a > 0 {
					buckets["Misc"] += a
				}
			}
		}
		for _, b := range []string{"ADC", "DAC+Drivers", "Array", "Analog adder/accum", "Digital postprocessing", "Buffer", "Misc"} {
			if buckets[b] == 0 {
				continue
			}
			t.AddRow(mm.name, b, report.Pct(buckets[b]/total))
		}
	}
	return []*report.Table{t}, nil
}

// Fig11 validates Macro B's data-value-dependent energy: energy per MAC
// as the average MAC value grows (the paper measures a 2.3x swing).
func Fig11(o Options) ([]*report.Table, error) {
	cfg := macros.Config{}
	if o.Fast {
		cfg.Rows, cfg.Cols = 16, 16
	}
	arch, err := macros.B(cfg)
	if err != nil {
		return nil, err
	}
	eng, err := core.NewEngine(arch)
	if err != nil {
		return nil, err
	}
	t := report.NewTable("Fig. 11: Macro B energy/MAC vs. average MAC value",
		"avg MAC value (0-15)", "energy/MAC (fJ)")
	var lo, hi float64
	sweep := []struct{ mean, wstd float64 }{
		{0.02, 0.05}, {0.1, 0.1}, {0.2, 0.15}, {0.35, 0.25},
		{0.5, 0.35}, {0.65, 0.45}, {0.8, 0.55}, {0.95, 0.65},
	}
	for i, pt := range sweep {
		layer, err := maxUtilLayer(arch, "")
		if err != nil {
			return nil, err
		}
		layer.Act.Sparsity = 0
		layer.Act.Mean = pt.mean
		layer.Act.Std = 0.06
		layer.Wgt.Std = pt.wstd
		ctx, err := eng.PrepareLayer(layer)
		if err != nil {
			return nil, err
		}
		m, err := eng.GreedyMapping(ctx)
		if err != nil {
			return nil, err
		}
		r, err := eng.EvaluateMapping(ctx, m)
		if err != nil {
			return nil, err
		}
		// The figure measures the MAC path (DAC, cells, adder, ADC,
		// accumulation) as the chip measurement does; buffer staging is
		// value-independent and excluded.
		var macPath float64
		for _, le := range r.Levels {
			switch le.Name {
			case "dac", "cell", "adc", "analog_adder", "shift_add", "input_regs":
				macPath += le.Total
			}
		}
		// Average MAC value on the 0-15 scale of the figure: mean input
		// slice times mean |weight| slice normalized to 4b x 4b products.
		avgMAC := ctx.InputSlicePMF.Mean() * ctx.WeightSlicePMF.Mean() / (15 * 15) * 15 * 16
		perMAC := macPath / float64(r.MACs) * 1e15
		t.AddRow(report.Num(avgMAC), report.Num(perMAC))
		if i == 0 {
			lo = perMAC
		}
		hi = perMAC
	}
	t.Note = fmt.Sprintf("swing %.2fx (paper: 2.3x)", hi/lo)
	return []*report.Table{t}, nil
}
