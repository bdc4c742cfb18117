package core

import (
	"crypto/sha256"
	"errors"
	"fmt"

	"repro/internal/circuits"
	"repro/internal/dist"
	"repro/internal/enc"
	"repro/internal/spec"
	"repro/internal/tensor"
	"repro/internal/workload"
)

// accessEnergies is the per-value energy of each access type at one level
// for one tensor, computed once per (layer, architecture).
type accessEnergies struct {
	read  float64 // J per value read
	write float64 // J per value written
	cross float64 // J per value crossing (transit) or per MAC (compute)
}

// kindEnergies is one level's access energies indexed by tensor.Kind;
// mask has bit 1<<kind set for each tensor the level has energies for.
type kindEnergies struct {
	byKind [tensor.NumKinds]accessEnergies
	mask   uint8
}

func (k *kindEnergies) has(t tensor.Kind) bool { return k.mask&(1<<uint(t)) != 0 }

func (k *kindEnergies) set(t tensor.Kind, ae accessEnergies) {
	k.byKind[t] = ae
	k.mask |= 1 << uint(t)
}

// LayerContext carries everything that is computed once per (layer,
// architecture) and amortized across mappings: the sliced einsum, the
// operand PMFs after encoding/slicing, and per-component average energies
// (Algorithm 1 lines 3–7).
type LayerContext struct {
	Layer workload.Layer
	// Sliced is the layer's einsum with the bit-slice dims added. It is
	// validated once, when the context is made (PrepareLayer,
	// RestoreLayerContext), and searches compile it without validating
	// it again, so it must not be changed afterwards.
	Sliced *tensor.Einsum

	// energies[levelIdx].byKind[kind]
	energies []kindEnergies

	// Rail multipliers from the encodings (a differential encoding drives
	// two physical rails per operand).
	inputRails  int
	weightRails int

	// Value PMFs retained for inspection and the value simulator.
	InputSlicePMF  *dist.PMF
	WeightSlicePMF *dist.PMF
}

// PrepareLayer runs the data-value-dependent pipeline for one layer:
// operand PMFs → encoding → slicing → per-component average energy per
// action. Operand PMFs are synthesized from the layer's statistics.
func (e *Engine) PrepareLayer(l workload.Layer) (*LayerContext, error) {
	return e.prepareLayer(l, true)
}

// ErrPrepareBusy is TryPrepareLayer's refusal to wait: a memo entry the
// preparation needs is being filled by another goroutine.
var ErrPrepareBusy = errors.New("core: layer preparation needs a memo entry another goroutine is filling")

// TryPrepareLayer is PrepareLayer that never waits on another
// goroutine's fill of the engine's PrepareMemo: where PrepareLayer would
// block on an operand stage or column sum being computed elsewhere, it
// returns ErrPrepareBusy, having filled whatever entries it reached
// first. A caller with other work (the next layer of a network) can do
// that and come back with PrepareLayer, which then finds the entry
// filled. The context it returns is the one PrepareLayer would.
func (e *Engine) TryPrepareLayer(l workload.Layer) (*LayerContext, error) {
	return e.prepareLayer(l, false)
}

func (e *Engine) prepareLayer(l workload.Layer, wait bool) (*LayerContext, error) {
	inPMF, err := l.InputPMF(e.arch.InputBits)
	if err != nil {
		return nil, err
	}
	wPMF, err := l.WeightPMF(e.arch.WeightBits)
	if err != nil {
		return nil, err
	}
	return e.prepareWithPMFs(l, inPMF, wPMF, wait)
}

// PrepareLayerWithPMFs is PrepareLayer with caller-supplied operand
// distributions — e.g. empirical PMFs recorded from profiled tensors, the
// paper's RecordOperandPMFs (Algorithm 1 line 3). Values must be integer
// levels within the architecture's operand precisions.
//
// The operand stage (encoding, slicing, cell product) and the column sums
// are looked up in the engine's PrepareMemo — one per server, shared by
// every engine the server compiles and bounded by its cache capacity, see
// WithPrepareMemo — or else in one local to this call. The operand stage
// is keyed by the resolved encodings, the four operand and slice
// precisions and the exact operand PMFs, so architectures that agree on
// those share it; contexts share the memoized PMFs, never copies.
func (e *Engine) PrepareLayerWithPMFs(l workload.Layer, inPMF, wPMF *dist.PMF) (*LayerContext, error) {
	return e.prepareWithPMFs(l, inPMF, wPMF, true)
}

// prepareWithPMFs is PrepareLayerWithPMFs, or TryPrepareLayer's variant
// of it when !wait.
func (e *Engine) prepareWithPMFs(l workload.Layer, inPMF, wPMF *dist.PMF, wait bool) (*LayerContext, error) {
	sliced, err := e.arch.SlicedEinsum(l.Op)
	if err != nil {
		return nil, err
	}
	memo := e.memo
	if memo == nil {
		memo = NewPrepareMemo(0)
	}
	ops, err := memo.operands(e.arch, inPMF, wPMF, wait)
	if err != nil {
		return nil, err
	}
	ctx := &LayerContext{
		Layer:          l,
		Sliced:         sliced,
		inputRails:     ops.inputRails,
		weightRails:    ops.weightRails,
		InputSlicePMF:  ops.inSlice,
		WeightSlicePMF: ops.wSlice,
	}

	// Step 3: per-component average energies.
	ctx.energies = make([]kindEnergies, len(e.bindings))
	sums := layerSums{memo: memo, ops: ops, wait: wait}
	for i := range e.bindings {
		b := &e.bindings[i]
		m, err := e.levelEnergies(b, ctx, &sums)
		if err != nil {
			return nil, fmt.Errorf("core: level %q: %w", b.level.Name, err)
		}
		ctx.energies[i] = m
	}
	return ctx, nil
}

// operandStage is what a layer preparation derives from its operand PMFs
// alone: the average slice PMFs after encoding and slicing, the rail
// counts of the encodings (a differential encoding drives two physical
// rails per operand), and the cell product the column sums convolve with
// its content key. It is immutable once prepared.
type operandStage struct {
	inSlice, wSlice         *dist.PMF
	inputRails, weightRails int
	cell                    *dist.PMF
	cellKey                 [sha256.Size]byte
}

// prepareOperands runs the operand stage for operand PMFs inPMF and wPMF
// under the resolved encodings inEnc and wEnc.
func prepareOperands(a *Arch, inEnc, wEnc string, inPMF, wPMF *dist.PMF) (*operandStage, error) {
	// Step 2a: encoding. Unsigned workloads presented to a signed-capable
	// encoding are fine; signed workloads fall back to a signed encoding
	// (ResolveInputEncoding).
	inRail, inRails, err := encodeAverageRail(inEnc, a.InputBits, inPMF)
	if err != nil {
		return nil, fmt.Errorf("core: input encoding: %w", err)
	}
	wRail, wRails, err := encodeAverageRail(wEnc, a.WeightBits, wPMF)
	if err != nil {
		return nil, fmt.Errorf("core: weight encoding: %w", err)
	}

	// Step 2b: slicing.
	inSlicing, err := enc.NewSlicing(a.InputBits, a.DACBits)
	if err != nil {
		return nil, err
	}
	inSlice, err := inSlicing.AverageSlicePMF(inRail)
	if err != nil {
		return nil, err
	}
	wSlicing, err := enc.NewSlicing(a.WeightBits, a.CellBits)
	if err != nil {
		return nil, err
	}
	wSlice, err := wSlicing.AverageSlicePMF(wRail)
	if err != nil {
		return nil, err
	}

	// Column sums convolve the cell-product PMF at 128 bins; rebin it
	// once here rather than once per reduction depth.
	cell := dist.Mul(inSlice, wSlice, 512).Rebin(128)
	return &operandStage{
		inSlice:     inSlice,
		wSlice:      wSlice,
		inputRails:  inRails,
		weightRails: wRails,
		cell:        cell,
		cellKey:     cellKey(cell),
	}, nil
}

// encodeAverageRail encodes a PMF and returns the average rail PMF plus
// the rail count.
func encodeAverageRail(name string, bits int, p *dist.PMF) (*dist.PMF, int, error) {
	encoding, err := enc.ByName(name, bits)
	if err != nil {
		return nil, 0, err
	}
	rails, err := encoding.TransformPMF(p)
	if err != nil {
		return nil, 0, err
	}
	avg := rails[0]
	for i := 1; i < len(rails); i++ {
		avg, err = dist.Mix(avg, rails[i], float64(i)/float64(i+1))
		if err != nil {
			return nil, 0, err
		}
	}
	return avg, len(rails), nil
}

// maxColumnDepth caps the reduction depth a column sum is synthesized
// over, which bounds SumNCapped at log2(maxColumnDepth) doublings.
const maxColumnDepth = 65536

// layerSums is one layer preparation's handle on a memo's column sums:
// the memo, the layer's operand stage, whose cell product is summed, and
// whether a sum another goroutine is filling is waited for.
type layerSums struct {
	memo *PrepareMemo
	ops  *operandStage
	wait bool
}

// columnSumPMF synthesizes the distribution of the analog sum arriving at
// the boundary above level b: depth-wise sum of independent cell products
// (the independence assumption of §III-D1), saturating at columnSumCap.
// Integer cell products (few-bit cells and DAC slices, as in macros A and
// B) give the exact capped distribution; products rebinned off the
// integers give SumNCapped's 512-point approximation. Results are
// memoized by (cell-product content, depth) in s.memo: the engine's
// shared PrepareMemo — one per server, bounded by the server's cache
// capacity together with the operand stages, see WithPrepareMemo — or
// else one local to the PrepareLayer call.
func (e *Engine) columnSumPMF(b int, s *layerSums) (*dist.PMF, error) {
	depth := min(e.arch.reductionDepthBelow(b), maxColumnDepth)
	return s.memo.sum(s.ops, depth, s.wait)
}

// quantizePMFTo rescales a non-negative value PMF onto [0, 2^bits-1]
// using the given theoretical full-scale value, so the statistical model
// and the value-level simulator quantize identically.
func quantizePMFTo(p *dist.PMF, bits int, fullScale float64) *dist.PMF {
	if fullScale <= 0 {
		return dist.Delta(0)
	}
	fs := float64(int64(1)<<uint(bits) - 1)
	return p.Map(func(v float64) float64 {
		if v < 0 {
			v = 0
		}
		if v > fullScale {
			v = fullScale
		}
		return v / fullScale * fs
	})
}

// ColumnFullScale returns the theoretical maximum analog column sum at the
// boundary above level b: max slice product times the reduction depth.
func (a *Arch) ColumnFullScale(b int) float64 {
	maxIn := float64(int64(1)<<uint(a.DACBits) - 1)
	maxW := float64(int64(1)<<uint(a.CellBits) - 1)
	return maxIn * maxW * float64(a.reductionDepthBelow(b))
}

// levelEnergies computes the per-value access energies for one level.
func (e *Engine) levelEnergies(b *binding, ctx *LayerContext, sums *layerSums) (kindEnergies, error) {
	a := e.arch
	lv := b.level
	var out kindEnergies
	reduction := a.reductionDepthBelow(b.levelIdx + 1)
	outBits := a.OutputBits(reduction)
	// Outputs are re-quantized to operand precision before entering
	// memory (the standard requantization step of fabricated macros);
	// full accumulator width exists only in the datapath.
	storedOutBits := a.InputBits + a.WeightBits
	if storedOutBits > outBits {
		storedOutBits = outBits
	}
	bitsOf := func(t tensor.Kind) int {
		switch t {
		case tensor.Input:
			return a.InputBits
		case tensor.Weight:
			return a.WeightBits
		default:
			return storedOutBits
		}
	}

	switch lv.Kind {
	case spec.SpatialLevel:
		return out, nil

	case spec.StorageLevel:
		switch {
		case b.buffer != nil:
			for _, t := range kindsOf(lv.Keeps) {
				bits := float64(bitsOf(t))
				out.set(t, accessEnergies{
					read:  b.buffer.ReadEnergyPerBit() * bits,
					write: b.buffer.WriteEnergyPerBit() * bits,
				})
			}
		case b.dram != nil:
			for _, t := range kindsOf(lv.Keeps) {
				bits := float64(bitsOf(t))
				out.set(t, accessEnergies{
					read:  b.dram.AccessEnergyPerBit() * bits,
					write: b.dram.AccessEnergyPerBit() * bits,
				})
			}
		case b.model != nil:
			// Value-based storage: output accumulators (analog
			// accumulator, shift-add) see the accumulated-sum
			// distribution; input/weight registers see the operand
			// slice distributions.
			for _, t := range kindsOf(lv.Keeps) {
				var ops circuits.Operands
				switch t {
				case tensor.Input:
					ops.Input = ctx.InputSlicePMF
				case tensor.Weight:
					ops.Weight = ctx.WeightSlicePMF
				default:
					sum, err := e.columnSumPMF(b.levelIdx+1, sums)
					if err != nil {
						return out, err
					}
					ops.Output = sum
				}
				me, err := b.model.MeanEnergy(ops)
				if err != nil {
					return out, err
				}
				// One action per value written; reading the settled value
				// out is folded into that cost for accumulators. Register
				// reads feeding DACs each slice cost one register op.
				if t == tensor.Output {
					out.set(t, accessEnergies{write: me})
				} else {
					out.set(t, accessEnergies{read: me, write: me})
				}
			}
		default:
			return out, fmt.Errorf("storage level has no bound model")
		}
		return out, nil

	case spec.TransitLevel:
		for _, t := range kindsOf(lv.Transits) {
			var ops circuits.Operands
			switch t {
			case tensor.Input:
				ops.Input = ctx.InputSlicePMF
			case tensor.Weight:
				ops.Weight = ctx.WeightSlicePMF
			default:
				sum, err := e.columnSumPMF(b.levelIdx+1, sums)
				if err != nil {
					return out, err
				}
				// ADCs see the sum quantized to their own full scale.
				if adc, ok := b.model.(*circuits.ADC); ok {
					sum = quantizePMFTo(sum, adc.Bits(), a.ColumnFullScale(b.levelIdx+1))
				}
				ops.Output = sum
			}
			me, err := b.model.MeanEnergy(ops)
			if err != nil {
				return out, err
			}
			out.set(t, accessEnergies{cross: me})
		}
		return out, nil

	case spec.ComputeLevel:
		me, err := b.model.MeanEnergy(circuits.Operands{
			Input:  ctx.InputSlicePMF,
			Weight: ctx.WeightSlicePMF,
		})
		if err != nil {
			return out, err
		}
		out.set(tensor.Output, accessEnergies{cross: me})
		// Weight programming cost (fills into the cells).
		out.set(tensor.Weight, accessEnergies{write: b.programEnergy})
		return out, nil
	}
	return out, fmt.Errorf("unknown level kind %v", lv.Kind)
}

// kindsOf lists the tensor kinds keyed in a level's per-tensor flag map,
// in tensor.Kind order. Keys are listed whatever their value, as ranging
// over the map would.
func kindsOf(m map[tensor.Kind]bool) []tensor.Kind {
	var out []tensor.Kind
	for t := tensor.Kind(0); t < tensor.NumKinds; t++ {
		if _, ok := m[t]; ok {
			out = append(out, t)
		}
	}
	return out
}
