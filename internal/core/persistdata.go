package core

import (
	"errors"
	"fmt"

	"repro/internal/dist"
	"repro/internal/tensor"
	"repro/internal/workload"
)

// Plain-data views of the amortized per-layer state, for serialization.
//
// A LayerContext is the expensive half of an evaluation — the
// data-value-dependent pipeline of Algorithm 1 lines 3-7 (PMF synthesis,
// encoding, slicing, and per-component average energies) — but its
// contents are plain numbers: once computed, it is just tables. Export
// flattens a context into exported, JSON-ready structs; RestoreLayerContext
// rebuilds a context from them without re-running the pipeline. The two
// are exact inverses: a restored context evaluates every mapping
// bit-identically to the original (package persist relies on this for
// warm starts).
//
// Engines need no analogous view: an Engine is compiled from its Arch —
// already plain data — in microseconds, so its serialized form is the
// Arch itself and its decoder is NewEngine.

// AccessEnergy is the exported view of one level's per-value access
// energies for one tensor role (joules per read/write/crossing).
type AccessEnergy struct {
	Read  float64 `json:"read,omitempty"`
	Write float64 `json:"write,omitempty"`
	Cross float64 `json:"cross,omitempty"`
}

// LayerContextData is the plain-data view of a LayerContext. All fields
// are exported and JSON-serializable; float values round-trip bit-exactly
// through encoding/json (shortest round-trip formatting).
type LayerContextData struct {
	Layer  workload.Layer `json:"layer"`
	Sliced *tensor.Einsum `json:"sliced"`

	// Energies is indexed [levelIdx][tensorKind], parallel to the flattened
	// level list of the architecture the context was prepared against.
	Energies []map[tensor.Kind]AccessEnergy `json:"energies"`

	InputRails  int `json:"input_rails"`
	WeightRails int `json:"weight_rails"`

	InputSlicePMF  []dist.Point `json:"input_slice_pmf"`
	WeightSlicePMF []dist.Point `json:"weight_slice_pmf"`
}

// Export flattens the context into its plain-data view.
func (c *LayerContext) Export() *LayerContextData {
	d := &LayerContextData{
		Layer:       c.Layer,
		Sliced:      c.Sliced,
		InputRails:  c.inputRails,
		WeightRails: c.weightRails,
	}
	if c.InputSlicePMF != nil {
		d.InputSlicePMF = c.InputSlicePMF.Points()
	}
	if c.WeightSlicePMF != nil {
		d.WeightSlicePMF = c.WeightSlicePMF.Points()
	}
	d.Energies = make([]map[tensor.Kind]AccessEnergy, len(c.energies))
	for i := range c.energies {
		k := &c.energies[i]
		em := make(map[tensor.Kind]AccessEnergy, tensor.NumKinds)
		for t := tensor.Kind(0); t < tensor.NumKinds; t++ {
			if k.has(t) {
				ae := k.byKind[t]
				em[t] = AccessEnergy{Read: ae.read, Write: ae.write, Cross: ae.cross}
			}
		}
		d.Energies[i] = em
	}
	return d
}

// RestoreLayerContext rebuilds an evaluable LayerContext from its
// plain-data view, validating structural invariants but not re-running the
// preparation pipeline. The caller is responsible for pairing the context
// with an engine of the matching architecture (the persist layer does this
// by content fingerprint).
func RestoreLayerContext(d *LayerContextData) (*LayerContext, error) {
	return restoreLayerContext(d, dist.Restore)
}

// AdoptLayerContext is RestoreLayerContext for data the caller hands
// over, such as a freshly decoded record: the context takes d's slice
// PMF points (dist.Adopt) instead of copying them, so the caller must
// neither use nor change them afterwards.
func AdoptLayerContext(d *LayerContextData) (*LayerContext, error) {
	return restoreLayerContext(d, dist.Adopt)
}

// restoreLayerContext is RestoreLayerContext with the slice PMFs made by
// restore.
func restoreLayerContext(d *LayerContextData, restore func([]dist.Point) (*dist.PMF, error)) (*LayerContext, error) {
	if d == nil {
		return nil, errors.New("core: nil layer context data")
	}
	if d.Sliced == nil {
		return nil, errors.New("core: layer context data has no sliced einsum")
	}
	if err := d.Sliced.Validate(); err != nil {
		return nil, fmt.Errorf("core: layer context sliced einsum: %w", err)
	}
	if d.Layer.Op == nil {
		return nil, errors.New("core: layer context data has no layer einsum")
	}
	if err := d.Layer.Op.Validate(); err != nil {
		return nil, fmt.Errorf("core: layer context layer einsum: %w", err)
	}
	if d.InputRails <= 0 || d.WeightRails <= 0 {
		return nil, fmt.Errorf("core: layer context rails %d/%d must be positive", d.InputRails, d.WeightRails)
	}
	if len(d.Energies) == 0 {
		return nil, errors.New("core: layer context data has no energy tables")
	}
	inPMF, err := restore(d.InputSlicePMF)
	if err != nil {
		return nil, fmt.Errorf("core: layer context input slice PMF: %w", err)
	}
	wPMF, err := restore(d.WeightSlicePMF)
	if err != nil {
		return nil, fmt.Errorf("core: layer context weight slice PMF: %w", err)
	}
	ctx := &LayerContext{
		Layer:          d.Layer,
		Sliced:         d.Sliced,
		inputRails:     d.InputRails,
		weightRails:    d.WeightRails,
		InputSlicePMF:  inPMF,
		WeightSlicePMF: wPMF,
		energies:       make([]kindEnergies, len(d.Energies)),
	}
	for i, m := range d.Energies {
		for t, ae := range m {
			if t < 0 || t >= tensor.NumKinds {
				return nil, fmt.Errorf("core: layer context level %d has energies for unknown tensor kind %d", i, int(t))
			}
			ctx.energies[i].set(t, accessEnergies{read: ae.Read, write: ae.Write, cross: ae.Cross})
		}
	}
	return ctx, nil
}

// LevelCount returns the number of per-level energy tables in the
// context — the flattened level count of the architecture it was prepared
// against. Persisted contexts are validated against their engine with it.
func (c *LayerContext) LevelCount() int { return len(c.energies) }
