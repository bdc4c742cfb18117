// Fullsystem: the paper's Fig. 15 study as a script. Macro D (22 nm C-2C
// SRAM) is placed in a full system — DRAM, global buffer, router, four
// parallel macros — and evaluated under the three data-placement
// scenarios: everything streamed from DRAM, weight-stationary, and
// weight-stationary with inputs/outputs pinned on-chip.
package main

import (
	"context"
	"fmt"
	"log"

	"repro"
)

func main() {
	gpt2, err := cimloop.NetworkByName("gpt2")
	if err != nil {
		log.Fatal(err)
	}
	gpt2.Layers = gpt2.Layers[:2] // keep the run quick
	resnet, err := cimloop.NetworkByName("resnet18")
	if err != nil {
		log.Fatal(err)
	}
	resnet.Layers = resnet.Layers[4:8]

	nets := []*cimloop.Network{gpt2, resnet}
	scenarios := []cimloop.Scenario{cimloop.AllDRAM, cimloop.WeightStationary, cimloop.OnChipIO}

	fmt.Printf("%-30s  %-12s  %10s  %10s  %10s  %10s\n",
		"scenario", "workload", "DRAM", "buffer", "macro", "total pJ/MAC")
	for _, sc := range scenarios {
		for _, net := range nets {
			macro, err := cimloop.MacroD(cimloop.MacroConfig{})
			if err != nil {
				log.Fatal(err)
			}
			sys, err := cimloop.BuildSystem(macro, sc, cimloop.SystemConfig{Macros: 4})
			if err != nil {
				log.Fatal(err)
			}
			eng, err := cimloop.NewEngine(sys)
			if err != nil {
				log.Fatal(err)
			}
			var dram, buffer, macroE float64
			var macs int64
			for _, l := range net.Layers {
				// Scenario studies pin the dataflow: one (greedy) mapping.
				r, _, err := eng.EvaluateLayerOptsCtx(context.Background(), l, cimloop.SearchOptions{MaxMappings: 1})
				if err != nil {
					log.Fatal(err)
				}
				rep := float64(l.Repeat)
				for _, le := range r.Levels {
					switch le.Name {
					case "dram":
						dram += le.Total * rep
					case "global_buffer":
						buffer += le.Total * rep
					default:
						macroE += le.Total * rep
					}
				}
				macs += r.MACs * int64(l.Repeat)
			}
			perMAC := 1e12 / float64(macs)
			fmt.Printf("%-30s  %-12s  %10.3f  %10.3f  %10.3f  %10.3f\n",
				sc, net.Name, dram*perMAC, buffer*perMAC, macroE*perMAC,
				(dram+buffer+macroE)*perMAC)
		}
	}
	fmt.Println("\nWeight-stationary CiM removes the dominant DRAM weight traffic;")
	fmt.Println("keeping inputs/outputs on-chip (layer fusion) removes most of the rest.")
}
