package core_test

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

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
func prepareAll(t *testing.T, jobs []memoJob, memo *core.PrepareMemo) map[string]string {
	t.Helper()
	got := make(map[string]string, len(jobs))
	for _, j := range jobs {
		got[j.key] = contextDigest(t, j.eng.WithPrepareMemo(memo), j.layer)
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
// contexts prepared with a call-local memo, and the shared memo reused
// operand stages across the grid.
func TestColumnSumsMatchCallLocal(t *testing.T) {
	jobs := memoJobs(t)
	want := prepareAll(t, jobs, nil)

	shared := core.NewPrepareMemo(0)
	compareDigests(t, "shared", prepareAll(t, jobs, shared), want)
	operands, sums := shared.Kinds()
	if sums == 0 {
		t.Fatal("shared memo holds no column sums")
	}
	// Every preparation looks its operand stage up once; an unbounded
	// memo holds one entry per distinct key.
	if operands == 0 || operands >= len(jobs) {
		t.Fatalf("%d operand-stage lookups filled %d entries: want reuse", len(jobs), operands)
	}

	reversed := make([]memoJob, len(jobs))
	for i, j := range jobs {
		reversed[len(jobs)-1-i] = j
	}
	compareDigests(t, "reverse-filled", prepareAll(t, reversed, core.NewPrepareMemo(0)), want)
}

// TestColumnSumsBound: a memo never holds more than its capacity, both
// entry kinds counted together, and contexts prepared through evictions
// of both kinds are unchanged.
func TestColumnSumsBound(t *testing.T) {
	var jobs []memoJob
	for _, j := range memoJobs(t) {
		if j.macro == "macro-a" || j.macro == "macro-b" {
			jobs = append(jobs, j)
		}
	}
	want := prepareAll(t, jobs, nil)
	unbounded := core.NewPrepareMemo(0)
	prepareAll(t, jobs, unbounded)
	operands, sums := unbounded.Kinds()
	for _, capacity := range []int{1, 3} {
		// Every distinct key is filled once; more distinct keys of a kind
		// than the capacity forces evictions of that kind.
		if operands <= capacity || sums <= capacity {
			t.Fatalf("capacity %d evicts too little: %d operand stages, %d column sums", capacity, operands, sums)
		}
		memo := core.NewPrepareMemo(capacity)
		got := make(map[string]string, len(jobs))
		for _, j := range jobs {
			got[j.key] = contextDigest(t, j.eng.WithPrepareMemo(memo), j.layer)
			if n := memo.Len(); n > capacity {
				t.Fatalf("capacity %d: memo holds %d entries after %s", capacity, n, j.key)
			}
		}
		compareDigests(t, fmt.Sprintf("capacity %d", capacity), got, want)
	}
}

// TestColumnSumsConcurrentFill: goroutines preparing the grid in
// different orders against one shared memo reproduce the call-local
// contexts; concurrent lookups of one missing operand stage, through
// PrepareLayer on engines of different scenarios, and of one missing sum
// each fill it once.
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
		memo := core.NewPrepareMemo(capacity)
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
					ctx, err := j.eng.WithPrepareMemo(memo).PrepareLayer(j.layer)
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

	// The base macro alone and in its three scenarios: one operand stage.
	var sameOperands []memoJob
	for _, j := range jobs {
		if j.macro == "base" && j.layerIdx == 0 {
			sameOperands = append(sameOperands, j)
		}
	}
	memo := core.NewPrepareMemo(0)
	ctxs := make([]*core.LayerContext, 8)
	errs := make([]error, len(ctxs))
	var wg sync.WaitGroup
	for i := range ctxs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			j := sameOperands[i%len(sameOperands)]
			ctxs[i], errs[i] = j.eng.WithPrepareMemo(memo).PrepareLayer(j.layer)
		}()
	}
	wg.Wait()
	for i, ctx := range ctxs {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if ctx.InputSlicePMF != ctxs[0].InputSlicePMF || ctx.WeightSlicePMF != ctxs[0].WeightSlicePMF {
			t.Fatalf("preparation %d holds its own slice PMFs, want the one shared operand stage", i)
		}
	}
	if operands, _ := memo.Kinds(); operands != 1 {
		t.Fatalf("memo holds %d operand stages, want 1", operands)
	}

	cell, err := dist.FromPoints([]dist.Point{{Value: 0.5, Prob: 1}, {Value: 1.25, Prob: 2}, {Value: 3.75, Prob: 1}})
	if err != nil {
		t.Fatal(err)
	}
	memo = core.NewPrepareMemo(0)
	sums := make([]*dist.PMF, 8)
	errs = make([]error, len(sums))
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
	memo := core.NewPrepareMemo(0)
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

// TestPrepareMemoOperandKey: the operand-stage key covers everything the
// stage reads. One base-macro layer is prepared with each key field
// varied in turn — the input and weight encodings, the four operand and
// slice precisions, a signed input (the input encoding resolves by
// sign), and two operand pairs whose point lists concatenate to the same
// list split at different points. Against one shared memo every variant
// gets its own operand entry and exports bit-equal to its call-local
// preparation.
func TestPrepareMemoOperandKey(t *testing.T) {
	base, err := macros.ByName("base")
	if err != nil {
		t.Fatal(err)
	}
	l := workload.ResNet18().Layers[1]
	// 6-bit operands fit every precision varied below.
	inPMF, err := l.InputPMF(6)
	if err != nil {
		t.Fatal(err)
	}
	wPMF, err := l.WeightPMF(6)
	if err != nil {
		t.Fatal(err)
	}
	signed := l
	signed.Act.Signed = true
	signedPMF, err := signed.InputPMF(6)
	if err != nil {
		t.Fatal(err)
	}
	restore := func(pts ...dist.Point) *dist.PMF {
		p, err := dist.Adopt(pts)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	// (0 1 2 | 3) and (0 1 | 2 3): equal concatenations of valid PMFs.
	splitIn := restore(dist.Point{Value: 0, Prob: 0.5}, dist.Point{Value: 1, Prob: 0.5}, dist.Point{Value: 2, Prob: 1e-12})
	splitW := restore(dist.Point{Value: 3, Prob: 1})
	joinIn := restore(dist.Point{Value: 0, Prob: 0.5}, dist.Point{Value: 1, Prob: 0.5})
	joinW := restore(dist.Point{Value: 2, Prob: 1e-12}, dist.Point{Value: 3, Prob: 1})

	variants := []struct {
		name     string
		edit     func(a *core.Arch)
		in, w    *dist.PMF
		resolved string // input encoding the variant must resolve to
	}{
		{"base", func(*core.Arch) {}, inPMF, wPMF, "unsigned"},
		{"input-encoding", func(a *core.Arch) { a.InputEncoding = "offset" }, inPMF, wPMF, "offset"},
		{"weight-encoding", func(a *core.Arch) { a.WeightEncoding = "twos-complement" }, inPMF, wPMF, "unsigned"},
		{"input-bits", func(a *core.Arch) { a.InputBits = 7 }, inPMF, wPMF, "unsigned"},
		{"dac-bits", func(a *core.Arch) { a.DACBits = 2 }, inPMF, wPMF, "unsigned"},
		{"weight-bits", func(a *core.Arch) { a.WeightBits = 7 }, inPMF, wPMF, "unsigned"},
		{"cell-bits", func(a *core.Arch) { a.CellBits = 1 }, inPMF, wPMF, "unsigned"},
		{"signed-input", func(*core.Arch) {}, signedPMF, wPMF, "offset"},
		{"split-late", func(*core.Arch) {}, splitIn, splitW, "unsigned"},
		{"split-early", func(*core.Arch) {}, joinIn, joinW, "unsigned"},
	}
	memo := core.NewPrepareMemo(0)
	for i, v := range variants {
		a := *base
		v.edit(&a)
		if got := a.ResolveInputEncoding(v.in.Min() < 0); got != v.resolved {
			t.Fatalf("%s: input encoding resolves to %q, want %q", v.name, got, v.resolved)
		}
		eng, err := core.NewEngine(&a)
		if err != nil {
			t.Fatalf("%s: %v", v.name, err)
		}
		digest := func(e *core.Engine) string {
			ctx, err := e.PrepareLayerWithPMFs(l, v.in, v.w)
			if err != nil {
				t.Fatalf("%s: %v", v.name, err)
			}
			h := sha256.New()
			writeContext(h, ctx.Export())
			return hex.EncodeToString(h.Sum(nil))
		}
		if got, want := digest(eng.WithPrepareMemo(memo)), digest(eng); got != want {
			t.Errorf("%s: shared-memo context %s, call-local %s", v.name, got, want)
		}
		if operands, _ := memo.Kinds(); operands != i+1 {
			t.Fatalf("after %s the memo holds %d operand stages, want %d: a key field is missing", v.name, operands, i+1)
		}
	}
}

// TestPrepareMemoDropsFailures: an operand stage that fails (a
// non-integer input on macro D's unsigned encoding) leaves no entry, and
// the engine then prepares a valid layer as if it never failed; so does
// a layer whose operand synthesis fails.
func TestPrepareMemoDropsFailures(t *testing.T) {
	arch, err := macros.ByName("macro-d")
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.NewEngine(arch)
	if err != nil {
		t.Fatal(err)
	}
	memo := core.NewPrepareMemo(0)
	shared := eng.WithPrepareMemo(memo)
	l := workload.ResNet18().Layers[0]
	wPMF, err := l.WeightPMF(arch.WeightBits)
	if err != nil {
		t.Fatal(err)
	}
	_, err = shared.PrepareLayerWithPMFs(l, dist.Delta(2.5), wPMF)
	if err == nil || !strings.Contains(err.Error(), "unsigned cannot encode") {
		t.Fatalf("err = %v, want the unsigned encoding's refusal", err)
	}
	if n := memo.Len(); n != 0 {
		t.Fatalf("a failed operand stage left %d memo entries", n)
	}
	if got, want := contextDigest(t, shared, l), contextDigest(t, eng, l); got != want {
		t.Fatalf("after a failure the shared-memo context is %s, call-local %s", got, want)
	}
	if operands, _ := memo.Kinds(); operands != 1 {
		t.Fatalf("memo holds %d operand stages after one valid preparation, want 1", operands)
	}

	// Synthesis runs inside the statistics-keyed fill: a layer whose
	// input Gaussian underflows fails there, by either preparation, and
	// leaves no entry behind, not even one a no-wait lookup finds busy.
	bad := l
	bad.Act = workload.ActStats{Sparsity: 0.1, Mean: 0.503, Std: 1e-5}
	for range 2 {
		if _, err := shared.TryPrepareLayer(bad); err == nil || errors.Is(err, core.ErrPrepareBusy) {
			t.Fatalf("TryPrepareLayer of an underflowing layer: err = %v, want its synthesis error", err)
		}
		if _, err := shared.PrepareLayer(bad); err == nil || !strings.Contains(err.Error(), "zero total probability") {
			t.Fatalf("PrepareLayer of an underflowing layer: err = %v, want its synthesis error", err)
		}
	}
	if operands, _ := memo.Kinds(); operands != 1 {
		t.Fatalf("memo holds %d operand stages after failed syntheses, want 1", operands)
	}
}

// TestTryPrepareLayerBusy: while another goroutine fills a column sum a
// layer needs, TryPrepareLayer returns ErrPrepareBusy without counting a
// sum lookup, and PrepareLayer waits for the fill. Both then return the
// context a lone PrepareLayer prepares.
func TestTryPrepareLayerBusy(t *testing.T) {
	arch, err := macros.ByName("base")
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.NewEngine(arch)
	if err != nil {
		t.Fatal(err)
	}
	l := workload.ResNet18().Layers[0]
	want := contextDigest(t, eng, l)

	memo := core.NewPrepareMemo(0)
	shared := eng.WithPrepareMemo(memo)
	release, err := shared.HoldSums(l)
	if err != nil {
		t.Fatal(err)
	}
	_, before := memo.Stats()
	if _, err := shared.TryPrepareLayer(l); !errors.Is(err, core.ErrPrepareBusy) {
		t.Fatalf("TryPrepareLayer while a sum is filled elsewhere: err = %v, want ErrPrepareBusy", err)
	}
	if _, after := memo.Stats(); after != before {
		t.Fatalf("a busy preparation counted sum lookups: %+v, then %+v", before, after)
	}

	waited := make(chan *core.LayerContext)
	go func() {
		ctx, err := shared.PrepareLayer(l)
		if err != nil {
			t.Error(err)
		}
		waited <- ctx
	}()
	select {
	case <-waited:
		t.Fatal("PrepareLayer returned while the sums it needs were being filled")
	case <-time.After(50 * time.Millisecond):
	}
	release()
	ctx := <-waited
	if ctx == nil {
		t.FailNow()
	}
	for what, ctx := range map[string]*core.LayerContext{"waiting": ctx, "no-wait": mustTry(t, shared, l)} {
		h := sha256.New()
		writeContext(h, ctx.Export())
		if got := hex.EncodeToString(h.Sum(nil)); got != want {
			t.Fatalf("%s preparation: context digest %s, a lone PrepareLayer's %s", what, got, want)
		}
	}
}

// mustTry returns TryPrepareLayer's context, failing the test on error.
func mustTry(t *testing.T, eng *core.Engine, l workload.Layer) *core.LayerContext {
	t.Helper()
	ctx, err := eng.TryPrepareLayer(l)
	if err != nil {
		t.Fatal(err)
	}
	return ctx
}

// statsVariant is one layer preparation of TestPrepareMemoStatsKey: the
// base macro edited by arch, preparing layer.
type statsVariant struct {
	name  string
	arch  func(a *core.Arch)
	layer workload.Layer
}

// perturbed returns a copy of s with its field i moved to another valid
// value, failing the test for a field kind it cannot move.
func perturbed[S any](t *testing.T, s S, i int) S {
	t.Helper()
	v := reflect.ValueOf(&s).Elem()
	f := v.Field(i)
	switch f.Kind() {
	case reflect.Bool:
		f.SetBool(!f.Bool())
	case reflect.Float64:
		f.SetFloat(f.Float() + 0.05)
	default:
		t.Fatalf("%s.%s: no perturbation for kind %v: add one, and key the field in statsKey",
			v.Type().Name(), v.Type().Field(i).Name, f.Kind())
	}
	return s
}

// statsVariants lists a preparation per statistics-key field of l on the
// base macro: each ActStats and WeightStats field, found by reflection so
// a field added to either struct is varied too, and each arch field the
// key reads. l must be signed: the base macro's "unsigned" input
// encoding then resolves to "offset", so setting the input encoding to
// "offset", and the weight encoding to "" (which resolves to the base
// macro's "offset"), changes no resolved encoding: the key holds them
// unresolved.
func statsVariants(t *testing.T, l workload.Layer) []statsVariant {
	t.Helper()
	same := func(*core.Arch) {}
	vs := []statsVariant{{"base", same, l}}
	act := reflect.TypeOf(l.Act)
	for i := 0; i < act.NumField(); i++ {
		v := l
		v.Act = perturbed(t, l.Act, i)
		vs = append(vs, statsVariant{"Act." + act.Field(i).Name, same, v})
	}
	wgt := reflect.TypeOf(l.Wgt)
	for i := 0; i < wgt.NumField(); i++ {
		v := l
		v.Wgt = perturbed(t, l.Wgt, i)
		vs = append(vs, statsVariant{"Wgt." + wgt.Field(i).Name, same, v})
	}
	for _, e := range []struct {
		name string
		edit func(a *core.Arch)
	}{
		{"input-encoding", func(a *core.Arch) { a.InputEncoding = "twos-complement" }},
		{"input-encoding-unresolved", func(a *core.Arch) { a.InputEncoding = "offset" }},
		{"weight-encoding", func(a *core.Arch) { a.WeightEncoding = "twos-complement" }},
		{"weight-encoding-unresolved", func(a *core.Arch) { a.WeightEncoding = "" }},
		{"input-bits", func(a *core.Arch) { a.InputBits = 7 }},
		{"dac-bits", func(a *core.Arch) { a.DACBits = 2 }},
		{"weight-bits", func(a *core.Arch) { a.WeightBits = 7 }},
		{"cell-bits", func(a *core.Arch) { a.CellBits = 1 }},
	} {
		vs = append(vs, statsVariant{e.name, e.edit, l})
	}
	// A signed layer whose negative mass underflows: its synthesized
	// input is unsigned, so its input encoding resolves to unsigned.
	v := l
	v.Act = workload.ActStats{Signed: true, Mean: 0.9, Std: 0.01, Corr: 0.2}
	return append(vs, statsVariant{"signed-without-negative-mass", same, v})
}

// TestPrepareMemoStatsKey: the statistics key PrepareLayer and
// TryPrepareLayer look an operand stage up by covers everything the
// stage reads. Each statsVariants preparation, against one shared memo,
// adds its own operand entry and exports bit-equal to its call-local
// preparation, by PrepareLayer and by TryPrepareLayer alike, which
// exports bit-equal to PrepareLayerWithPMFs on the layer's synthesized
// PMFs (the content key resolves encodings by those PMFs); a field of
// ActStats or WeightStats left out of the key fails here. Layers that
// differ only in Name, Op or Repeat share one entry.
func TestPrepareMemoStatsKey(t *testing.T) {
	base, err := macros.ByName("base")
	if err != nil {
		t.Fatal(err)
	}
	l := workload.Transformer().Layers[1]
	variants := statsVariants(t, l)
	if want := 1 + reflect.TypeOf(l.Act).NumField() + reflect.TypeOf(l.Wgt).NumField() + 8 + 1; len(variants) != want {
		t.Fatalf("%d variants, want %d", len(variants), want)
	}
	var name string // the variant being prepared
	digest := func(ctx *core.LayerContext, err error) string {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		h := sha256.New()
		writeContext(h, ctx.Export())
		return hex.EncodeToString(h.Sum(nil))
	}
	memo := core.NewPrepareMemo(0)
	for i, v := range variants {
		a := *base
		v.arch(&a)
		eng, err := core.NewEngine(&a)
		if err != nil {
			t.Fatalf("%s: %v", v.name, err)
		}
		name = v.name
		want := digest(eng.PrepareLayer(v.layer))
		in, err := v.layer.InputPMF(a.InputBits)
		if err != nil {
			t.Fatal(err)
		}
		w, err := v.layer.WeightPMF(a.WeightBits)
		if err != nil {
			t.Fatal(err)
		}
		if got := digest(eng.PrepareLayerWithPMFs(v.layer, in, w)); got != want {
			t.Fatalf("%s: PrepareLayer context %s, PrepareLayerWithPMFs on its synthesized PMFs %s", v.name, want, got)
		}
		shared := eng.WithPrepareMemo(memo)
		// The no-wait preparation fills the entry, the waiting one finds it.
		if got := digest(shared.TryPrepareLayer(v.layer)); got != want {
			t.Errorf("%s: shared-memo TryPrepareLayer context %s, call-local %s", v.name, got, want)
		}
		if got := digest(shared.PrepareLayer(v.layer)); got != want {
			t.Errorf("%s: shared-memo PrepareLayer context %s, call-local %s", v.name, got, want)
		}
		if operands, _ := memo.Kinds(); operands != i+1 {
			t.Fatalf("after %s the memo holds %d operand stages, want %d: a key field is missing", v.name, operands, i+1)
		}
		if ops, _ := memo.Stats(); ops.Lookups != uint64(2*(i+1)) || ops.Fills != uint64(i+1) {
			t.Fatalf("after %s: operand lookups %+v, want %d lookups and %d fills", v.name, ops, 2*(i+1), i+1)
		}
	}

	// The underflowing signed layer synthesizes a non-negative input.
	last := variants[len(variants)-1].layer
	in, err := last.InputPMF(base.InputBits)
	if err != nil {
		t.Fatal(err)
	}
	if in.Min() < 0 || base.ResolveInputEncoding(in.Min() < 0) != "unsigned" {
		t.Fatalf("signed layer's input spans [%g, %g]: want no negative mass", in.Min(), in.Max())
	}

	eng, err := core.NewEngine(base)
	if err != nil {
		t.Fatal(err)
	}
	shared := eng.WithPrepareMemo(memo)
	first, err := shared.PrepareLayer(l)
	if err != nil {
		t.Fatal(err)
	}
	before, _ := memo.Kinds()
	other := workload.Transformer().Layers[3]
	for _, v := range []workload.Layer{
		{Name: "renamed", Op: l.Op, Repeat: l.Repeat, Act: l.Act, Wgt: l.Wgt},
		{Name: l.Name, Op: other.Op, Repeat: l.Repeat, Act: l.Act, Wgt: l.Wgt},
		{Name: l.Name, Op: l.Op, Repeat: l.Repeat + 3, Act: l.Act, Wgt: l.Wgt},
	} {
		ctx, err := shared.PrepareLayer(v)
		if err != nil {
			t.Fatal(err)
		}
		if ctx.InputSlicePMF != first.InputSlicePMF || ctx.WeightSlicePMF != first.WeightSlicePMF {
			t.Fatalf("layer %q (%s, repeat %d) holds its own operand stage, want the shared one", v.Name, v.Op.Name, v.Repeat)
		}
		if got, want := contextDigest(t, shared, v), contextDigest(t, eng, v); got != want {
			t.Fatalf("layer %q: shared-memo context %s, call-local %s", v.Name, got, want)
		}
	}
	if after, _ := memo.Kinds(); after != before {
		t.Fatalf("layers differing only in name, einsum or repeat added %d operand stages", after-before)
	}
}

// TestPrepareMemoStatsKeyConcurrent: goroutines preparing one layer on
// the base macro alone and in its three system scenarios, half through
// TryPrepareLayer (falling back to PrepareLayer when busy) and half
// through PrepareLayer, against one shared memo, fill its operand stage
// once and reproduce the call-local contexts.
func TestPrepareMemoStatsKeyConcurrent(t *testing.T) {
	var jobs []memoJob
	for _, j := range memoJobs(t) {
		if j.macro == "base" && j.layerIdx == 2 {
			jobs = append(jobs, j)
		}
	}
	if len(jobs) != 4 {
		t.Fatalf("%d jobs, want the base macro under 4 scenarios", len(jobs))
	}
	want := prepareAll(t, jobs, nil)
	memo := core.NewPrepareMemo(0)
	const workers = 8
	got := make([]string, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			j := jobs[w%len(jobs)]
			eng := j.eng.WithPrepareMemo(memo)
			var ctx *core.LayerContext
			var err error
			if w%2 == 0 {
				ctx, err = eng.TryPrepareLayer(j.layer)
			}
			if w%2 == 1 || errors.Is(err, core.ErrPrepareBusy) {
				ctx, err = eng.PrepareLayer(j.layer)
			}
			if err != nil {
				t.Error(err)
				return
			}
			h := sha256.New()
			writeContext(h, ctx.Export())
			got[w] = hex.EncodeToString(h.Sum(nil))
		}()
	}
	wg.Wait()
	for w, g := range got {
		if j := jobs[w%len(jobs)]; g != want[j.key] {
			t.Errorf("worker %d (%s): context %s, call-local %s", w, j.key, g, want[j.key])
		}
	}
	if operands, _ := memo.Kinds(); operands != 1 {
		t.Fatalf("memo holds %d operand stages, want 1", operands)
	}
	if ops, _ := memo.Stats(); ops.Fills != 1 {
		t.Fatalf("operand stage filled %d times, want once", ops.Fills)
	}
}

// TestOperandStagesShareAsByContent: over the grid of every built-in
// macro, alone and in each system scenario, and the first 8 layers of
// mobilenetv3-large, transformer, resnet18 and toy, PrepareLayer's
// statistics keys fill as many operand stages and column sums as
// content keys over the same synthesized PMFs do: keying by statistics
// loses no sharing on the zoo networks.
func TestOperandStagesShareAsByContent(t *testing.T) {
	byStats, byContent := core.NewPrepareMemo(0), core.NewPrepareMemo(0)
	for _, mac := range digestMacros {
		arch, err := macros.ByName(mac)
		if err != nil {
			t.Fatal(err)
		}
		archs := []*core.Arch{arch}
		for _, sc := range []system.Scenario{system.AllDRAM, system.WeightStationary, system.OnChipIO} {
			sys, err := system.Build(arch, sc, system.Config{Macros: 1})
			if err != nil {
				t.Fatal(err)
			}
			archs = append(archs, sys)
		}
		for _, a := range archs {
			eng, err := core.NewEngine(a)
			if err != nil {
				t.Fatal(err)
			}
			for _, name := range []string{"mobilenetv3-large", "transformer", "resnet18", "toy"} {
				net, err := workload.ByName(name)
				if err != nil {
					t.Fatal(err)
				}
				for _, l := range net.Layers[:min(len(net.Layers), memoLayers)] {
					if _, err := eng.WithPrepareMemo(byStats).PrepareLayer(l); err != nil {
						t.Fatal(err)
					}
					in, err := l.InputPMF(a.InputBits)
					if err != nil {
						t.Fatal(err)
					}
					w, err := l.WeightPMF(a.WeightBits)
					if err != nil {
						t.Fatal(err)
					}
					if _, err := eng.WithPrepareMemo(byContent).PrepareLayerWithPMFs(l, in, w); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
	}
	sOps, sSums := byStats.Kinds()
	cOps, cSums := byContent.Kinds()
	t.Logf("operand stages: %d by statistics, %d by content; column sums %d, %d", sOps, cOps, sSums, cSums)
	if sOps != cOps || sSums != cSums {
		t.Fatalf("statistics keys fill %d operand stages and %d column sums, content keys %d and %d", sOps, sSums, cOps, cSums)
	}
}

// TestMeanEnergiesSharedAcrossSystems: the base macro alone, then in a
// weight-stationary system of 2 and of 3 macros, prepares ResNet18's
// leading layers on one memo, as a server prepares a new system. Every
// context equals a call-local preparation's bit for bit, and after the
// bare macro no output circuit is priced again: its column sums' entries
// already hold their mean energies. Goroutines preparing the same grid
// in different orders on a fresh memo agree. Macros whose output
// circuits read no column sum (photonic, macro-d, tpu-like) look none
// up, alone or in a system.
func TestMeanEnergiesSharedAcrossSystems(t *testing.T) {
	systemEngines := func(mac string) []*core.Engine {
		t.Helper()
		arch, err := macros.ByName(mac)
		if err != nil {
			t.Fatal(err)
		}
		archs := []*core.Arch{arch}
		for _, n := range []int{2, 3} {
			sys, err := system.Build(arch, system.WeightStationary, system.Config{Macros: n})
			if err != nil {
				t.Fatal(err)
			}
			archs = append(archs, sys)
		}
		var engs []*core.Engine
		for _, a := range archs {
			eng, err := core.NewEngine(a)
			if err != nil {
				t.Fatal(err)
			}
			engs = append(engs, eng)
		}
		return engs
	}
	layers := workload.ResNet18().Layers[:memoLayers]

	engs := systemEngines("base")
	want := make([][]string, len(engs))
	for i, eng := range engs {
		for _, l := range layers {
			want[i] = append(want[i], contextDigest(t, eng, l))
		}
	}
	memo := core.NewPrepareMemo(0)
	count, stop := core.CountMeanEnergies()
	defer stop()
	var priced uint64
	for i, eng := range engs {
		before := count()
		for li, l := range layers {
			if got := contextDigest(t, eng.WithPrepareMemo(memo), l); got != want[i][li] {
				t.Fatalf("architecture %d layer %d: shared-memo context %s, call-local %s", i, li, got, want[i][li])
			}
		}
		n := count() - before
		if i == 0 {
			priced = n
		} else if n != 0 {
			t.Fatalf("architecture %d priced %d mean energies again, want 0", i, n)
		}
	}
	if _, sums := memo.Stats(); priced == 0 || sums.Lookups == 0 {
		t.Fatalf("the bare base macro priced %d mean energies from %d sum lookups: want both positive", priced, sums.Lookups)
	}

	concurrent := core.NewPrepareMemo(0)
	const workers = 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, i := range rand.New(rand.NewSource(int64(w))).Perm(len(engs) * len(layers)) {
				e, li := i/len(layers), i%len(layers)
				ctx, err := engs[e].WithPrepareMemo(concurrent).PrepareLayer(layers[li])
				if err != nil {
					t.Error(err)
					return
				}
				h := sha256.New()
				writeContext(h, ctx.Export())
				if got := hex.EncodeToString(h.Sum(nil)); got != want[e][li] {
					t.Errorf("worker %d, architecture %d layer %d: context %s, call-local %s", w, e, li, got, want[e][li])
				}
			}
		}()
	}
	wg.Wait()

	for _, mac := range []string{"photonic", "macro-d", "tpu-like"} {
		memo := core.NewPrepareMemo(0)
		for _, eng := range systemEngines(mac) {
			if d := eng.ColumnSumDepths(); len(d) != 0 {
				t.Errorf("%s: column sums read at depths %v, want none", mac, d)
			}
			for _, l := range layers {
				if _, err := eng.WithPrepareMemo(memo).PrepareLayer(l); err != nil {
					t.Fatal(err)
				}
			}
		}
		if _, sums := memo.Stats(); sums.Lookups != 0 {
			t.Errorf("%s: %d column-sum lookups, want 0", mac, sums.Lookups)
		}
	}
}
