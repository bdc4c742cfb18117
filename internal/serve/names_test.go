package serve

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/macros"
	"repro/internal/tech"
	"repro/internal/workload"
)

// builtinFingerprints pins ArchFingerprint of every built-in macro, bare
// and under each system scenario. They are the keys of every persisted
// cache directory: a change here strands warm starts.
var builtinFingerprints = []struct{ macro, scenario, fp string }{
	{"base", "", "7cd187ba65c4d7d24878af91f30f1fc91e6033f4883306cbd2e196d891c08143"},
	{"base", "all-tensors-from-dram", "9a189062432ac362ba835e9aaf3f02167acac75228cd383e78f077d877c9e624"},
	{"base", "weight-stationary", "012d801724c4e21ec20f42e3e3b77e6c8cd360c76462b55267ff3e8c934ac7fd"},
	{"base", "weight-stationary+onchip-io", "2c233533559d86959a1d4f36367631106d93e58a30c53191f6be8bb74215a0c5"},
	{"macro-a", "", "a176a1e1ec70684c49d434077f759707fb6246b8d75d059d9fd4550627a5ef94"},
	{"macro-a", "all-tensors-from-dram", "23c7972af390413f0626f0cd6933b35c789ec81f952417fc7e3fe7ee58d71a6f"},
	{"macro-a", "weight-stationary", "b3933916783409e62e50b385a15237a4f36f0de9390baa4bbe8e2c1d57ba902a"},
	{"macro-a", "weight-stationary+onchip-io", "de97aa80a1271fcd0364b4e35dd2b563f9b848bf9efaaf997680d1ff1601c7ed"},
	{"macro-b", "", "44965ce38b6f5006d99cdf1cbb07e010d8050ed37205f6c08e14f8577a28435b"},
	{"macro-b", "all-tensors-from-dram", "847e43e293e185a7634e8487d511c56580be7c1b1c838b6e1e98ccd17f6950b8"},
	{"macro-b", "weight-stationary", "8dbe5b3c5aed74baad1275b70ffcb0b9c5e83982816f50169544a3b196724c5a"},
	{"macro-b", "weight-stationary+onchip-io", "a33e51739f9d613dafde5985eeeb33d3e1a9e7f0a3b89d1d6d69d63a8cb6b2ed"},
	{"macro-c", "", "01874ab6582e2ab58b48f01f7284132be86612f8bcd29c742196d0a274244a39"},
	{"macro-c", "all-tensors-from-dram", "5341dc86369c8ceea17b6a1bd79ab5bf7f9d51e7208f02beac052ee6f5d981ef"},
	{"macro-c", "weight-stationary", "895cb329a9893b96c3ac61cf6c1ca67ce43f6c39eec082a6b6e2ae1a02a6bc00"},
	{"macro-c", "weight-stationary+onchip-io", "89417ff85d3de5cfe4e7e969977d18bf833c28a0b28772b92d70755b2be49ef3"},
	{"macro-d", "", "60e4282fdee57f9308a6f78e68b1b1594f8956280909226062a68ca2eef68cc5"},
	{"macro-d", "all-tensors-from-dram", "c28d5c19aacfbfa546a9f401feff36634eeedb50a3a4b23a3d7900e8897bed08"},
	{"macro-d", "weight-stationary", "02e53cc6f72247b36d03ec2943842b134208f32c3be9c5a34cc603b14d329c15"},
	{"macro-d", "weight-stationary+onchip-io", "042e556a80ce8756ffe44cf3acec09611c5765c31207210ccfb7149ff8dd7b80"},
	{"digital-cim", "", "fff4276aac37fa2605e4cd332d4355148556a16c30c41ca29e65e3912d5121de"},
	{"digital-cim", "all-tensors-from-dram", "05e49cf825210d7f2d3ad7bc64949aff3698d78448ec33b3ad3315426ce259e2"},
	{"digital-cim", "weight-stationary", "176b867729e5d4facf2323a33d3d378f0574e377fe9813d7ed4a534bf5516d7f"},
	{"digital-cim", "weight-stationary+onchip-io", "4c3a5a2ed443a60fbe33fde5ae050eafe4c45b9c90bc20fbad8c5b710a57e3c6"},
	{"tpu-like", "", "ca0a35ff25c4c6f70d2bfbe952ace46fc49af36da80da5c3bbb52094568066b6"},
	{"tpu-like", "all-tensors-from-dram", "069d386be903b8587bbbe69812290c31a93dc1b505e1d4fcd0e0bdd02edc37c7"},
	{"tpu-like", "weight-stationary", "47238fd50b647fb1f14a3982c31278224eebe87891769f117ba9d68125fd6a99"},
	{"tpu-like", "weight-stationary+onchip-io", "a7209ae4152a444844f310f24008b2662691d0fcea2b367be5db2f67b35eacfb"},
	{"photonic", "", "891a7c1685ff73f71b82e35345e7f948c3003972ec9c725816e4da329c2d4b53"},
	{"photonic", "all-tensors-from-dram", "13b5e2a57ed583d8d4104fd362413751b7cac9d61f1d78dee6195e30ea27bd55"},
	{"photonic", "weight-stationary", "109334539049e581f4d48fab333a86fa2342dc547b9752284769a10dd03a9e6a"},
	{"photonic", "weight-stationary+onchip-io", "604886a4711c365ab2d142dd8297c6d40ff7f235853bcb564491a7b0fd0d216d"},
}

func TestBuiltinArchFingerprintsPinned(t *testing.T) {
	srv := NewServer(BatchOptions{})
	for _, c := range builtinFingerprints {
		arch, err := resolveArch(&Request{Macro: c.macro, Scenario: c.scenario})
		if err != nil {
			t.Fatal(err)
		}
		if got := ArchFingerprint(arch); got != c.fp {
			t.Errorf("%s/%q: fingerprint %s, pinned %s", c.macro, c.scenario, got, c.fp)
		}
		rv, err := srv.resolve(&Request{Macro: c.macro, Scenario: c.scenario, Network: "toy"})
		if err != nil {
			t.Fatal(err)
		}
		if rv.archFP != c.fp {
			t.Errorf("%s/%q: resolved fingerprint %s, pinned %s", c.macro, c.scenario, rv.archFP, c.fp)
		}
	}
}

// TestArchFingerprintNodeFactors: two archs that differ only in the
// node's scaling factors are different content. A server that saw the
// unscaled macro first must answer the scaled one as a fresh server
// does, not from the unscaled engine.
func TestArchFingerprintNodeFactors(t *testing.T) {
	base, err := macros.Base(macros.Config{})
	if err != nil {
		t.Fatal(err)
	}
	fp := ArchFingerprint(base)
	seen := map[string]string{fp: "unscaled"}
	for name, scale := range map[string]func(n *tech.Node){
		"Vdd":    func(n *tech.Node) { n.Vdd *= 1.1 },
		"Energy": func(n *tech.Node) { n.Energy *= 2 },
		"Area":   func(n *tech.Node) { n.Area *= 3 },
		"Delay":  func(n *tech.Node) { n.Delay *= 3 },
	} {
		a := *base
		scale(&a.Node)
		got := ArchFingerprint(&a)
		if prev, dup := seen[got]; dup {
			t.Fatalf("scaling the node's %s factor hashes like the %s node", name, prev)
		}
		seen[got] = name
	}

	double := *base
	double.Node.Energy *= 2
	req := func(a *core.Arch) Request {
		return Request{Arch: a, Network: "toy", MaxMappings: 4, Seed: 1}
	}
	shared := NewServer(BatchOptions{})
	unscaled, err := shared.EvaluateCtx(context.Background(), req(base))
	if err != nil {
		t.Fatal(err)
	}
	got, err := shared.EvaluateCtx(context.Background(), req(&double))
	if err != nil {
		t.Fatal(err)
	}
	want, err := NewServer(BatchOptions{}).EvaluateCtx(context.Background(), req(&double))
	if err != nil {
		t.Fatal(err)
	}
	if got.EnergyJ != want.EnergyJ {
		t.Fatalf("shared server answers the scaled node with %g J, a fresh server with %g J", got.EnergyJ, want.EnergyJ)
	}
	if got.EnergyJ == unscaled.EnergyJ {
		t.Fatalf("doubling the node's energy factor left the energy at %g J", got.EnergyJ)
	}
}

// sansElapsed strips the one field that legitimately differs between two
// evaluations of the same request: wall time.
func sansElapsed(r *Result) Result {
	c := *r
	c.ElapsedSec = 0
	return c
}

func memoEntries(m *sync.Map) int {
	n := 0
	m.Range(func(_, _ any) bool { n++; return true })
	return n
}

// TestNameMemoMatchesFreshServer: bare, scenario-wrapped and truncated
// requests, interleaved on one server (in sequence and concurrently),
// each answer what a fresh server answers, and the memoized archs and
// networks still hash to the fingerprints the memo stored: nothing a
// request does mutates a shared entry.
func TestNameMemoMatchesFreshServer(t *testing.T) {
	var reqs []Request
	for _, m := range []string{"base", "macro-b", "b"} {
		for _, sc := range []string{"", "all-tensors-from-dram", "weight-stationary", "weight-stationary+onchip-io"} {
			for _, n := range []struct {
				name   string
				layers int
			}{{"toy", 0}, {"toy", 2}, {"resnet18", 3}, {"resnet18", 1}} {
				reqs = append(reqs, Request{Macro: m, Scenario: sc, Network: n.name, Layers: n.layers, MaxMappings: 4, Seed: int64(len(reqs))})
			}
		}
	}
	// Interleave: a bare request sits between wrapped ones, and a
	// truncated network between full ones.
	perm := make([]Request, 0, len(reqs))
	for i := 0; i < len(reqs); i++ {
		perm = append(perm, reqs[(i*17)%len(reqs)])
	}
	want := make([]Result, len(perm))
	for i, r := range perm {
		res, err := NewServer(BatchOptions{}).EvaluateCtx(context.Background(), r)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = sansElapsed(res)
	}

	shared := NewServer(BatchOptions{Workers: 4})
	for i, r := range perm {
		res, err := shared.EvaluateCtx(context.Background(), r)
		if err != nil {
			t.Fatal(err)
		}
		if got := sansElapsed(res); !reflect.DeepEqual(got, want[i]) {
			t.Fatalf("request %d (%+v): shared server %+v, fresh server %+v", i, r, got, want[i])
		}
	}
	swept, err := shared.SweepCtx(context.Background(), perm, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range swept {
		if res.Err != "" {
			t.Fatalf("sweep item %d: %s", i, res.Err)
		}
		if got := sansElapsed(res); !reflect.DeepEqual(got, want[i]) {
			t.Fatalf("sweep item %d: shared server %+v, fresh server %+v", i, got, want[i])
		}
	}

	// base, macro-b and its alias b; toy and resnet18.
	if n := memoEntries(&shared.names.macros); n != 3 {
		t.Fatalf("%d macro memo entries, want 3", n)
	}
	if n := memoEntries(&shared.names.nets); n != 2 {
		t.Fatalf("%d network memo entries, want 2", n)
	}
	shared.names.macros.Range(func(k, v any) bool {
		a := v.(*namedArch)
		if fp := ArchFingerprint(a.arch); fp != a.fp {
			t.Errorf("memoized macro %q now hashes to %s, stored %s", k, fp, a.fp)
		}
		fresh, err := macros.ByName(k.(string))
		if err != nil || !reflect.DeepEqual(fresh, a.arch) {
			t.Errorf("memoized macro %q differs from a fresh build", k)
		}
		return true
	})
	shared.names.nets.Range(func(k, v any) bool {
		n := v.(*namedNet)
		if fps := layerFingerprints(n.net.Layers); !slices.Equal(fps, n.fps) {
			t.Errorf("memoized network %q now hashes to %v, stored %v", k, fps, n.fps)
		}
		fresh, err := workload.ByName(k.(string))
		if err != nil || !reflect.DeepEqual(fresh, n.net) {
			t.Errorf("memoized network %q differs from a fresh build", k)
		}
		return true
	})
}

// TestNameMemoUnknownNames: unknown names fail with the builders' errors,
// every time, and never become memo entries.
func TestNameMemoUnknownNames(t *testing.T) {
	srv := NewServer(BatchOptions{})
	for i := 0; i < 1000; i++ {
		name := fmt.Sprintf("no-such-%d", i)
		_, want := macros.ByName(name)
		if _, err := srv.EvaluateCtx(context.Background(), Request{Macro: name, Network: "toy"}); err == nil || err.Error() != want.Error() {
			t.Fatalf("macro %q: error %v, want %v", name, err, want)
		}
		_, want = workload.ByName(name)
		if _, err := srv.EvaluateCtx(context.Background(), Request{Macro: "base", Network: name, Layers: i % 3}); err == nil || err.Error() != want.Error() {
			t.Fatalf("network %q: error %v, want %v", name, err, want)
		}
	}
	if n := memoEntries(&srv.names.macros); n != 1 {
		t.Fatalf("%d macro memo entries after 1000 unknown names, want 1 (base)", n)
	}
	if n := memoEntries(&srv.names.nets); n != 0 {
		t.Fatalf("%d network memo entries after 1000 unknown names, want 0", n)
	}
	if st := srv.CacheStats(); st.Entries != 0 {
		t.Fatalf("unknown networks left %d cache entries", st.Entries)
	}
}

// TestNameMemoConcurrentFill: requests racing to resolve the same names
// on a fresh server all get the one stored entry.
func TestNameMemoConcurrentFill(t *testing.T) {
	srv := NewServer(BatchOptions{})
	const n = 8
	got := make([]resolved, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = srv.resolve(&Request{Macro: "macro-b", Network: "resnet18", Layers: 1 + i%3})
		}(i)
	}
	wg.Wait()
	for i := range got {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if got[i].arch != got[0].arch || &got[i].layerFPs[0] != &got[0].layerFPs[0] {
			t.Fatalf("request %d resolved to a second copy of the memoized entries", i)
		}
		if len(got[i].net.Layers) != 1+i%3 || len(got[i].layerFPs) != 1+i%3 {
			t.Fatalf("request %d: %d layers, %d fingerprints, want %d", i, len(got[i].net.Layers), len(got[i].layerFPs), 1+i%3)
		}
	}
}
