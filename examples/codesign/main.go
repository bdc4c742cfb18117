// Codesign: the paper's motivating experiment (Figs. 2a/2b) as a script.
// Sweeping CiM array size shows the lowest-energy *macro* is not the
// lowest-energy *system*; co-optimizing DAC resolution with array size
// beats optimizing either alone.
package main

import (
	"context"
	"fmt"
	"log"

	"repro"
)

func main() {
	net, err := cimloop.NetworkByName("resnet18")
	if err != nil {
		log.Fatal(err)
	}
	// Keep the run quick: a representative layer subset.
	net.Layers = net.Layers[4:10]

	fmt.Println("--- array size sweep (macro vs. system energy, ResNet18 subset) ---")
	fmt.Printf("%-10s  %-16s  %-16s\n", "array", "macro J/MAC", "system J/MAC")
	for _, size := range []int{64, 128, 256, 512} {
		macro, err := cimloop.MacroBase(cimloop.MacroConfig{Rows: size, Cols: size})
		if err != nil {
			log.Fatal(err)
		}
		sys, err := cimloop.BuildSystem(macro, cimloop.WeightStationary, cimloop.SystemConfig{Macros: 1})
		if err != nil {
			log.Fatal(err)
		}
		eng, err := cimloop.NewEngine(sys)
		if err != nil {
			log.Fatal(err)
		}
		res, err := eng.EvaluateNetworkOptsCtx(context.Background(), net, cimloop.SearchOptions{MaxMappings: 20})
		if err != nil {
			log.Fatal(err)
		}
		var macroE, sysE float64
		for i, r := range res.PerLayer {
			rep := float64(net.Layers[i].Repeat)
			for _, le := range r.Levels {
				switch le.Name {
				case "dram", "global_buffer", "router":
				default:
					macroE += le.Total * rep
				}
				sysE += le.Total * rep
			}
		}
		perMAC := 1e15 / float64(res.MACs)
		fmt.Printf("%-10s  %-16.3g  %-16.3g\n",
			fmt.Sprintf("%dx%d", size, size), macroE*perMAC, sysE*perMAC)
	}

	fmt.Println("\n--- co-design: DAC resolution x array size (system energy) ---")
	configs := []struct {
		name    string
		size    int
		dacBits int
	}{
		{"small array, 1b DAC (baseline)", 128, 1},
		{"small array, 4b DAC (circuits)", 128, 4},
		{"large array, 4b DAC (architecture)", 512, 4},
		{"large array, 1b DAC (co-optimized)", 512, 1},
	}
	for _, c := range configs {
		macro, err := cimloop.MacroBase(cimloop.MacroConfig{Rows: c.size, Cols: c.size, DACBits: c.dacBits})
		if err != nil {
			log.Fatal(err)
		}
		sys, err := cimloop.BuildSystem(macro, cimloop.WeightStationary, cimloop.SystemConfig{Macros: 1})
		if err != nil {
			log.Fatal(err)
		}
		eng, err := cimloop.NewEngine(sys)
		if err != nil {
			log.Fatal(err)
		}
		res, err := eng.EvaluateNetworkOptsCtx(context.Background(), net, cimloop.SearchOptions{MaxMappings: 20})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-36s  %.3g fJ/MAC\n", c.name, res.EnergyPerMAC()*1e15)
	}
}
