package serve

import (
	"sync"

	"repro/internal/core"
	"repro/internal/macros"
	"repro/internal/workload"
)

// nameMemo resolves built-in names once per server. A bare macro name
// (no scenario) and a zoo network name describe the same content on
// every request, so the macro builder, the network constructor, the
// network's validation and both fingerprints run on the first request
// that names them, and every later request reads the memoized entry:
// a warm request then pays only for cache lookups and the mapping
// searches. Inline specs, programmatic Arch/Net values and
// scenario-wrapped macros are resolved per request as before.
//
// Entries are shared by concurrent requests and never mutated: the
// engine compiled from a memoized Arch only reads it, and a request
// that truncates a network (Request.Layers) slices the memoized layers
// and fingerprints without copying them. Only names that resolve are
// stored, so the memo is bounded by the built-in name sets (aliases
// included); an unknown name fails with the builder's error on every
// request and adds no entry.
type nameMemo struct {
	macros sync.Map // macro name -> *namedArch
	nets   sync.Map // network name -> *namedNet
}

// namedArch is a built-in macro and its ArchFingerprint.
type namedArch struct {
	arch *core.Arch
	fp   string
}

// namedNet is a validated zoo network and its layers' LayerFingerprints.
type namedNet struct {
	net *workload.Network
	fps []string
}

// macro returns the memoized resolution of a bare macro name.
func (m *nameMemo) macro(name string) (*namedArch, error) {
	if v, ok := m.macros.Load(name); ok {
		return v.(*namedArch), nil
	}
	arch, err := macros.ByName(name)
	if err != nil {
		return nil, err
	}
	v, _ := m.macros.LoadOrStore(name, &namedArch{arch: arch, fp: ArchFingerprint(arch)})
	return v.(*namedArch), nil
}

// network returns the memoized resolution of a zoo network name.
func (m *nameMemo) network(name string) (*namedNet, error) {
	if v, ok := m.nets.Load(name); ok {
		return v.(*namedNet), nil
	}
	net, err := workload.ByName(name)
	if err != nil {
		return nil, err
	}
	if err := net.Validate(); err != nil {
		return nil, err
	}
	v, _ := m.nets.LoadOrStore(name, &namedNet{net: net, fps: layerFingerprints(net.Layers)})
	return v.(*namedNet), nil
}

func layerFingerprints(layers []workload.Layer) []string {
	fps := make([]string, len(layers))
	for i, l := range layers {
		fps[i] = LayerFingerprint(l)
	}
	return fps
}
