package core_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/macros"
	"repro/internal/system"
	"repro/internal/workload"
)

// memoLayers is how many leading ResNet18 layers the memo tests prepare.
const memoLayers = 8

// memoJob is one (engine, layer) preparation of the memo tests.
type memoJob struct {
	macro    string
	layerIdx int
	key      string
	eng      *core.Engine
	layer    workload.Layer
}

// memoJobs prepares the leading ResNet18 layers on every built-in macro,
// alone and inside each Fig. 15 system scenario: the engines of one macro
// share cell products, so a shared memo is exercised across
// architectures.
func memoJobs(t *testing.T) []memoJob {
	t.Helper()
	var jobs []memoJob
	for _, mac := range digestMacros {
		arch, err := macros.ByName(mac)
		if err != nil {
			t.Fatal(err)
		}
		archs := []*core.Arch{arch}
		names := []string{mac}
		for _, sc := range []system.Scenario{system.AllDRAM, system.WeightStationary, system.OnChipIO} {
			sys, err := system.Build(arch, sc, system.Config{Macros: 1})
			if err != nil {
				t.Fatal(err)
			}
			archs = append(archs, sys)
			names = append(names, mac+"/"+sc.String())
		}
		for i, a := range archs {
			eng, err := core.NewEngine(a)
			if err != nil {
				t.Fatal(err)
			}
			for li, l := range workload.ResNet18().Layers[:memoLayers] {
				jobs = append(jobs, memoJob{
					macro:    mac,
					layerIdx: li,
					key:      fmt.Sprintf("%s/%d", names[i], li),
					eng:      eng,
					layer:    l,
				})
			}
		}
	}
	return jobs
}

// contextDigest hashes every bit of a prepared context's exported view.
func contextDigest(t *testing.T, eng *core.Engine, l workload.Layer) string {
	t.Helper()
	ctx, err := eng.PrepareLayer(l)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	writeContext(h, ctx.Export())
	return hex.EncodeToString(h.Sum(nil))
}

// prepareAll prepares jobs in order, each engine sharing memo (nil: a
// call-local memo per preparation).
func prepareAll(t *testing.T, jobs []memoJob, memo *core.ColumnSums) map[string]string {
	t.Helper()
	got := make(map[string]string, len(jobs))
	for _, j := range jobs {
		got[j.key] = contextDigest(t, j.eng.WithColumnSums(memo), j.layer)
	}
	return got
}

func compareDigests(t *testing.T, label string, got, want map[string]string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d contexts, want %d", label, len(got), len(want))
	}
	for k, w := range want {
		if got[k] != w {
			t.Errorf("%s: %s: context digest %s, want %s", label, k, got[k], w)
		}
	}
}

// TestColumnSumsMatchCallLocal: for 8 macros x 4 scenarios x ResNet18
// layers 0-7, contexts prepared against one shared memo — filled in grid
// order, and a second one filled in reverse order — export bit-equal to
// contexts prepared with a call-local memo.
func TestColumnSumsMatchCallLocal(t *testing.T) {
	jobs := memoJobs(t)
	want := prepareAll(t, jobs, nil)

	shared := core.NewColumnSums(0)
	compareDigests(t, "shared", prepareAll(t, jobs, shared), want)
	if shared.Len() == 0 {
		t.Fatal("shared memo holds no column sums")
	}

	reversed := make([]memoJob, len(jobs))
	for i, j := range jobs {
		reversed[len(jobs)-1-i] = j
	}
	compareDigests(t, "reverse-filled", prepareAll(t, reversed, core.NewColumnSums(0)), want)
}

// TestColumnSumsBound: a memo never holds more than its capacity, and
// contexts prepared through evictions are unchanged.
func TestColumnSumsBound(t *testing.T) {
	var jobs []memoJob
	for _, j := range memoJobs(t) {
		if j.macro == "macro-a" || j.macro == "macro-b" {
			jobs = append(jobs, j)
		}
	}
	want := prepareAll(t, jobs, nil)
	for _, capacity := range []int{1, 3} {
		memo := core.NewColumnSums(capacity)
		got := make(map[string]string, len(jobs))
		for _, j := range jobs {
			got[j.key] = contextDigest(t, j.eng.WithColumnSums(memo), j.layer)
			if n := memo.Len(); n > capacity {
				t.Fatalf("capacity %d: memo holds %d entries after %s", capacity, n, j.key)
			}
		}
		compareDigests(t, fmt.Sprintf("capacity %d", capacity), got, want)
	}
}

// TestColumnSumsConcurrentFill: goroutines preparing the grid in
// different orders against one shared memo reproduce the call-local
// contexts; concurrent lookups of one missing sum compute it once.
func TestColumnSumsConcurrentFill(t *testing.T) {
	var jobs []memoJob
	for _, j := range memoJobs(t) {
		// The integer-cell CiM macros keep this cheap under -race.
		if (j.macro == "base" || j.macro == "macro-a" || j.macro == "macro-b") && j.layerIdx < 4 {
			jobs = append(jobs, j)
		}
	}
	want := prepareAll(t, jobs, nil)

	for _, capacity := range []int{0, 4} {
		memo := core.NewColumnSums(capacity)
		const workers = 4
		got := make([]map[string]string, workers)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[w] = map[string]string{}
				for _, i := range rand.New(rand.NewSource(int64(w))).Perm(len(jobs)) {
					j := jobs[i]
					ctx, err := j.eng.WithColumnSums(memo).PrepareLayer(j.layer)
					if err != nil {
						t.Error(err)
						return
					}
					h := sha256.New()
					writeContext(h, ctx.Export())
					got[w][j.key] = hex.EncodeToString(h.Sum(nil))
				}
			}()
		}
		wg.Wait()
		for w := range got {
			compareDigests(t, fmt.Sprintf("capacity %d worker %d", capacity, w), got[w], want)
		}
	}

	cell, err := dist.FromPoints([]dist.Point{{Value: 0.5, Prob: 1}, {Value: 1.25, Prob: 2}, {Value: 3.75, Prob: 1}})
	if err != nil {
		t.Fatal(err)
	}
	memo := core.NewColumnSums(0)
	sums := make([]*dist.PMF, 8)
	errs := make([]error, len(sums))
	var wg sync.WaitGroup
	for i := range sums {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sums[i], errs[i] = memo.SumOf(cell, 64)
		}()
	}
	wg.Wait()
	for i, s := range sums {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if s != sums[0] {
			t.Fatalf("lookup %d returned %p, want the one shared sum %p", i, s, sums[0])
		}
	}
	if memo.Len() != 1 {
		t.Fatalf("memo holds %d entries, want 1", memo.Len())
	}
}

// TestColumnSumsEntry: a memo entry is SumNCapped at cap 256 rebinned to
// 512 points, keyed by the cell product's exact content; failures are
// not memoized.
func TestColumnSumsEntry(t *testing.T) {
	cell, err := dist.FromPoints([]dist.Point{{Value: 0.5, Prob: 1}, {Value: 1.25, Prob: 2}, {Value: 3.75, Prob: 1}})
	if err != nil {
		t.Fatal(err)
	}
	memo := core.NewColumnSums(0)
	got, err := memo.SumOf(cell, 300)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := dist.SumNCapped(cell, 300, 256)
	if err != nil {
		t.Fatal(err)
	}
	want := ref.Rebin(512).Points()
	if len(got.Points()) != len(want) {
		t.Fatalf("memo sum has %d points, want %d", got.Len(), len(want))
	}
	for i, pt := range got.Points() {
		if math.Float64bits(pt.Value) != math.Float64bits(want[i].Value) ||
			math.Float64bits(pt.Prob) != math.Float64bits(want[i].Prob) {
			t.Fatalf("point %d = %+v, want %+v", i, pt, want[i])
		}
	}

	// An equal-content cell product built separately hits the entry; a
	// cell differing in one probability bit does not.
	same, err := dist.FromPoints([]dist.Point{{Value: 3.75, Prob: 1}, {Value: 0.5, Prob: 1}, {Value: 1.25, Prob: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if s, err := memo.SumOf(same, 300); err != nil || s != got {
		t.Fatalf("equal cell product: got %p (%v), want the memoized %p", s, err, got)
	}
	pts := append([]dist.Point(nil), cell.Points()...)
	pts[1].Prob = math.Nextafter(pts[1].Prob, 1)
	other, err := dist.FromPoints(pts)
	if err != nil {
		t.Fatal(err)
	}
	if s, err := memo.SumOf(other, 300); err != nil || s == got {
		t.Fatalf("cell product one bit apart shared the memoized sum (err %v)", err)
	}
	if memo.Len() != 2 {
		t.Fatalf("memo holds %d entries, want 2", memo.Len())
	}

	if _, err := memo.SumOf(cell, 0); err == nil {
		t.Fatal("a zero-depth sum must fail")
	}
	if memo.Len() != 2 {
		t.Fatalf("a failed sum was memoized: %d entries, want 2", memo.Len())
	}
}
