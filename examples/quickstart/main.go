// Quickstart: model one published CiM macro on one DNN layer and print
// the full energy/area/throughput breakdown — the minimal CiMLoop flow of
// workload -> architecture -> mapping -> estimates.
package main

import (
	"context"
	"fmt"
	"log"

	"repro"
)

func main() {
	// Macro B: Sinangil et al., 7 nm SRAM 64x64 with an analog adder
	// (paper Table III).
	arch, err := cimloop.Macro("macro-b")
	if err != nil {
		log.Fatal(err)
	}
	eng, err := cimloop.NewEngine(arch)
	if err != nil {
		log.Fatal(err)
	}

	net, err := cimloop.NetworkByName("resnet18")
	if err != nil {
		log.Fatal(err)
	}
	layer := net.Layers[5] // a 3x3 128-channel convolution

	// Search 200 mappings for the lowest-energy schedule.
	res, _, err := eng.EvaluateLayerOptsCtx(context.Background(), layer, cimloop.SearchOptions{MaxMappings: 200})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("macro:        %s\n", arch.Name)
	fmt.Printf("layer:        %s (%d MACs)\n", layer.Name, layer.Op.MACs())
	fmt.Printf("best mapping: %s\n", res.Mapping)
	fmt.Printf("energy:       %.3g J (%.3g fJ/MAC)\n", res.Energy, res.EnergyPerMAC()*1e15)
	fmt.Printf("efficiency:   %.1f TOPS/W\n", res.TOPSPerW())
	fmt.Printf("throughput:   %.1f GOPS\n", res.GOPS())
	fmt.Printf("area:         %.3f mm^2\n", res.AreaUm2/1e6)
	fmt.Printf("utilization:  %.1f%%\n", 100*res.Utilization)
	fmt.Println("\nper-component energy:")
	for _, le := range res.Levels {
		if le.Total == 0 {
			continue
		}
		fmt.Printf("  %-14s %8.3g J  (%.1f%%)\n", le.Name, le.Total, 100*le.Total/res.Energy)
	}
}
