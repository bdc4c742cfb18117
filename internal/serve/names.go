package serve

import (
	"context"
	"sync"

	"repro/internal/core"
	"repro/internal/macros"
	"repro/internal/workload"
)

// nameMemo resolves built-in names once per server. A bare macro name
// (no scenario) and a zoo network name describe the same content on
// every request, so the macro builder, the architecture's fingerprint,
// the engine's compilation, the network constructor and the network's
// validation run on the first request that names them, and a layer's
// fingerprint on the first request that evaluates that layer (a request
// for the first 2 layers of a network hashes those 2). Every later request reads the memoized
// entry: a warm request then pays only for cache lookups and the mapping
// searches. A scenario-wrapped macro wraps the memoized macro; it, inline
// specs and programmatic Arch/Net values are resolved, and their engines
// compiled, per request.
//
// Entries are shared by concurrent requests and never mutated, except
// that each layer fingerprint is filled in once, under its sync.Once:
// the engine compiled from a memoized Arch only reads it, and a request
// that truncates a network (Request.Layers) slices the memoized layers
// without copying them. Only names that resolve are stored, so the memo
// is bounded by the built-in name sets (aliases included); an unknown
// name fails with the builder's error on every request and adds no
// entry.
type nameMemo struct {
	macros sync.Map // macro name -> *namedArch
	nets   sync.Map // network name -> *namedNet
}

// namedArch is a built-in macro, its ArchFingerprint, and its engine,
// which shares the server cache's preparation memo.
type namedArch struct {
	arch *core.Arch
	fp   string
	eng  *core.Engine
}

// namedNet is a validated zoo network and its layers'
// LayerFingerprints, each computed once, on first use (layerFP).
type namedNet struct {
	net *workload.Network
	fps []lazyFingerprint // parallel to net.Layers
}

// lazyFingerprint is one layer's LayerFingerprint, computed once.
type lazyFingerprint struct {
	once sync.Once
	fp   string
}

// layerFP returns the LayerFingerprint of the network's layer i.
func (n *namedNet) layerFP(i int) string {
	f := &n.fps[i]
	f.once.Do(func() { f.fp = LayerFingerprint(n.net.Layers[i]) })
	return f.fp
}

// macro returns the memoized resolution of a bare macro name, its
// engine compiled for cache c on first use.
func (m *nameMemo) macro(ctx context.Context, name string, c *Cache) (*namedArch, error) {
	if v, ok := m.macros.Load(name); ok {
		return v.(*namedArch), nil
	}
	arch, err := macros.ByName(name)
	if err != nil {
		return nil, err
	}
	eng, err := c.compile(ctx, arch)
	if err != nil {
		return nil, err
	}
	v, _ := m.macros.LoadOrStore(name, &namedArch{arch: arch, fp: ArchFingerprint(arch), eng: eng})
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
	v, _ := m.nets.LoadOrStore(name, &namedNet{net: net, fps: make([]lazyFingerprint, len(net.Layers))})
	return v.(*namedNet), nil
}

func layerFingerprints(layers []workload.Layer) []string {
	fps := make([]string, len(layers))
	for i, l := range layers {
		fps[i] = LayerFingerprint(l)
	}
	return fps
}
