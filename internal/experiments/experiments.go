// Package experiments regenerates every table and figure of the paper's
// evaluation (§II motivation, §IV accuracy/speed, §V case studies). Each
// experiment returns report tables carrying the same rows/series the paper
// plots; EXPERIMENTS.md records paper-vs-measured shapes.
package experiments

import (
	"context"
	"fmt"
	"runtime"
	"sort"

	"repro/internal/core"
	"repro/internal/report"
	"repro/internal/serve"
	"repro/internal/workload"
)

// Options tunes experiment cost. The zero value selects full-size runs;
// Fast shrinks arrays, layer subsets, and mapping budgets for tests and
// benchmarks while preserving every trend.
type Options struct {
	Fast        bool
	MaxMappings int
	Seed        int64
	Workers     int
	// SearchWorkers fans each layer's candidate mapping evaluations
	// across a worker pool on the single-network paths (0: match Workers).
	// Results are bit-identical to serial search, so figures are
	// reproduced faster, not differently.
	SearchWorkers int
}

func (o Options) mappings() int {
	if o.MaxMappings > 0 {
		return o.MaxMappings
	}
	if o.Fast {
		return 6
	}
	return 60
}

func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.NumCPU()
}

func (o Options) searchWorkers() int {
	if o.SearchWorkers > 0 {
		return o.SearchWorkers
	}
	return o.workers()
}

// steps returns the value-level simulation length.
func (o Options) steps() int {
	if o.Fast {
		return 6
	}
	return 32
}

// subset returns up to n layers of a network in Fast mode (all otherwise).
func (o Options) subset(net *workload.Network, n int) *workload.Network {
	if !o.Fast || len(net.Layers) <= n {
		return net
	}
	cp := *net
	stride := len(net.Layers) / n
	if stride < 1 {
		stride = 1
	}
	cp.Layers = nil
	for i := 0; i < len(net.Layers) && len(cp.Layers) < n; i += stride {
		cp.Layers = append(cp.Layers, net.Layers[i])
	}
	return &cp
}

// Runner regenerates one experiment.
type Runner func(Options) ([]*report.Table, error)

var registry = map[string]Runner{
	"fig2a":  Fig2a,
	"fig2b":  Fig2b,
	"fig4":   Fig4,
	"fig6":   Fig6,
	"table2": Table2,
	"table3": Table3,
	"fig7":   Fig7,
	"fig8":   Fig8,
	"fig9":   Fig9,
	"fig10":  Fig10,
	"fig11":  Fig11,
	"fig12":  Fig12,
	"fig13":  Fig13,
	"fig14":  Fig14,
	"fig15":  Fig15,
	"fig16":  Fig16,

	"ablation-amortization": AblationAmortization,
	"ablation-joint":        AblationJoint,

	"ext-devices":  Devices,
	"ext-adcshare": ADCShare,
	"ext-beyond":   Beyond,
}

// Names lists the registered experiments in sorted order.
func Names() []string {
	out := make([]string, 0, len(registry))
	for k := range registry {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Run executes the named experiment.
func Run(name string, o Options) ([]*report.Table, error) {
	r, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (have %v)", name, Names())
	}
	return r(o)
}

// evalNet evaluates a network on an architecture with the option budget.
// Single-network figure paths (the ones no grid sweep covers) get their
// parallelism here: each layer's candidate evaluations fan across the
// search workers, with answers identical to the serial evaluator.
func evalNet(arch *core.Arch, net *workload.Network, o Options) (*core.NetworkResult, error) {
	eng, err := core.NewEngine(arch)
	if err != nil {
		return nil, err
	}
	return eng.EvaluateNetworkOptsCtx(context.Background(), net, core.SearchOptions{
		MaxMappings:   o.mappings(),
		Seed:          o.Seed,
		SearchWorkers: o.searchWorkers(),
	})
}

// sweeper is the shared batch executor: design-point grids (Fig. 2's
// array sizes, Fig. 15's scenario matrix) fan across its worker pool, and
// its content-addressed cache keeps engines and layer contexts warm
// across experiment runs — the cross-request extension of the paper's
// per-layer amortization.
var sweeper = serve.NewServer(serve.BatchOptions{})

// sweepNets runs prebuilt (arch, net) requests through the shared
// executor and unwraps the per-layer network results in request order.
func sweepNets(reqs []serve.Request, o Options) ([]*core.NetworkResult, error) {
	results, err := sweeper.SweepCtx(context.Background(), reqs, o.workers(), nil)
	if err != nil {
		return nil, err
	}
	out := make([]*core.NetworkResult, len(results))
	for i, r := range results {
		if r.Err != "" {
			return nil, fmt.Errorf("experiments: sweep request %d (%s): %s", i, r.Tag, r.Err)
		}
		out[i] = r.NetworkResult
	}
	return out, nil
}

// bucketEnergy sums network per-layer level energies into named buckets by
// level-name membership, weighted by layer repeats; levels not listed land
// in fallback.
func bucketEnergy(res *core.NetworkResult, net *workload.Network, buckets map[string][]string, fallback string) map[string]float64 {
	member := map[string]string{}
	for b, names := range buckets {
		for _, n := range names {
			member[n] = b
		}
	}
	out := map[string]float64{}
	for li, r := range res.PerLayer {
		rep := 1.0
		if li < len(net.Layers) {
			rep = float64(net.Layers[li].Repeat)
		}
		for _, le := range r.Levels {
			b, ok := member[le.Name]
			if !ok {
				b = fallback
			}
			out[b] += le.Total * rep
		}
	}
	return out
}
