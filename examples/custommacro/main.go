// Custommacro: define a brand-new CiM macro from a textual container-
// hierarchy specification (the paper's Fig. 5b YAML, no simulator source
// changes needed) and compare it against the published Macro B on the
// same workload.
package main

import (
	"context"
	"fmt"
	"log"

	"repro"
)

// mySpec describes an experimental ReRAM macro: 2-bit cells, bit-serial
// inputs, shift-add digital accumulation, one 6b ADC per column.
const mySpec = `
name: my-reram-macro
node_nm: 22
clock_hz: 250e6
input_bits: 8
weight_bits: 8
dac_bits: 1
cell_bits: 2
hierarchy:
  - component: buffer
    class: sram-buffer
    attrs: {capacity_kb: 32}
    temporal_reuse: [Inputs, Weights, Outputs]
  - component: dac
    class: dac
    no_coalesce: [Inputs]
  - container: columns
    mesh_x: 64
    spatial_reuse: [Inputs]
    children:
      - component: shift_add
        class: shift-add
        attrs: {bits: 24}
        temporal_reuse: [Outputs]
      - component: adc
        class: adc
        attrs: {resolution: 6, value_aware: 1}
        no_coalesce: [Outputs]
      - container: rows
        mesh_y: 128
        spatial_reuse: [Outputs]
        children:
          - component: cell
            class: reram-cell
            compute: true
            temporal_reuse: [Weights]
mapping:
  spatial_prefs:
    columns: [K]
    rows: [C, R, S]
  inner_dims: [C, R, S]
  weight_slice_level: columns
  input_slice_level: shift_add
`

func main() {
	custom, err := cimloop.ParseSpec(mySpec)
	if err != nil {
		log.Fatal(err)
	}
	published, err := cimloop.Macro("macro-b")
	if err != nil {
		log.Fatal(err)
	}

	net, err := cimloop.NetworkByName("mobilenetv3-large")
	if err != nil {
		log.Fatal(err)
	}
	net.Layers = net.Layers[2:7] // representative subset

	fmt.Printf("%-18s  %12s  %10s  %10s  %10s\n",
		"macro", "fJ/MAC", "TOPS/W", "GOPS", "mm^2")
	for _, arch := range []*cimloop.Arch{custom, published} {
		eng, err := cimloop.NewEngine(arch)
		if err != nil {
			log.Fatal(err)
		}
		res, err := eng.EvaluateNetworkOptsCtx(context.Background(), net, cimloop.SearchOptions{MaxMappings: 40})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-18s  %12.3g  %10.1f  %10.1f  %10.3f\n",
			arch.Name, res.EnergyPerMAC()*1e15, res.TOPSPerW(), res.GOPS(),
			res.AreaUm2/1e6)
	}
	fmt.Println("\nEdit mySpec and re-run: new components, meshes, and reuse")
	fmt.Println("directives change the model without touching library code.")
}
