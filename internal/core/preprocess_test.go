package core

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"bayescrowd/internal/bayesnet"
	"bayescrowd/internal/crowd"
	"bayescrowd/internal/ctable"
	"bayescrowd/internal/dataset"
	"bayescrowd/internal/prob"
)

func TestMarginalDists(t *testing.T) {
	d := dataset.New([]dataset.Attribute{{Name: "a", Levels: 3}})
	d.MustAppend(dataset.Object{ID: "o1", Cells: []dataset.Cell{dataset.Known(2)}})
	d.MustAppend(dataset.Object{ID: "o2", Cells: []dataset.Cell{dataset.Known(2)}})
	d.MustAppend(dataset.Object{ID: "o3", Cells: []dataset.Cell{dataset.Unknown()}})

	dists, err := Preprocess(d, Options{MarginalsOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	dist, ok := dists[ctable.Var{Obj: 2, Attr: 0}]
	if !ok {
		t.Fatal("missing cell has no distribution")
	}
	// Counts: value 2 observed twice; add-one smoothing over 3 levels:
	// (0+1)/5, (0+1)/5, (2+1)/5.
	want := []float64{0.2, 0.2, 0.6}
	for v := range want {
		if math.Abs(dist[v]-want[v]) > 1e-12 {
			t.Fatalf("marginal = %v, want %v", dist, want)
		}
	}
	// Only missing cells get distributions.
	if len(dists) != 1 {
		t.Fatalf("got %d distributions, want 1", len(dists))
	}
}

func TestPreprocessWithProvidedNet(t *testing.T) {
	// Chain net a1 → a2 with strong coupling: observing a1 must shift the
	// posterior of a missing a2.
	net := bayesnet.MustNew([]bayesnet.Node{
		{Name: "a1", Levels: 2, CPT: []float64{0.5, 0.5}},
		{Name: "a2", Levels: 2, Parents: []int{0}, CPT: []float64{0.9, 0.1, 0.1, 0.9}},
	})
	d := dataset.New([]dataset.Attribute{{Name: "a1", Levels: 2}, {Name: "a2", Levels: 2}})
	d.MustAppend(dataset.Object{ID: "hi", Cells: []dataset.Cell{dataset.Known(1), dataset.Unknown()}})
	d.MustAppend(dataset.Object{ID: "lo", Cells: []dataset.Cell{dataset.Known(0), dataset.Unknown()}})

	dists, err := Preprocess(d, Options{Net: net})
	if err != nil {
		t.Fatal(err)
	}
	hi := dists[ctable.Var{Obj: 0, Attr: 1}]
	lo := dists[ctable.Var{Obj: 1, Attr: 1}]
	if math.Abs(hi[1]-0.9) > 1e-9 || math.Abs(lo[1]-0.1) > 1e-9 {
		t.Fatalf("posteriors hi=%v lo=%v, want P(a2=1) = 0.9 / 0.1", hi, lo)
	}
}

func TestPreprocessSchemaMismatch(t *testing.T) {
	net := bayesnet.MustNew([]bayesnet.Node{
		{Name: "a1", Levels: 2, CPT: []float64{0.5, 0.5}},
	})
	d := dataset.New([]dataset.Attribute{{Name: "a1", Levels: 2}, {Name: "a2", Levels: 2}})
	if _, err := Preprocess(d, Options{Net: net}); err == nil {
		t.Error("Preprocess accepted node-count mismatch")
	}

	net3 := bayesnet.MustNew([]bayesnet.Node{
		{Name: "a1", Levels: 3, CPT: []float64{0.4, 0.3, 0.3}},
		{Name: "a2", Levels: 2, CPT: []float64{0.5, 0.5}},
	})
	if _, err := Preprocess(d, Options{Net: net3}); err == nil {
		t.Error("Preprocess accepted level mismatch")
	}
}

func TestPreprocessLearnsFromCompleteRows(t *testing.T) {
	// Strong a1→a2 dependence in the data: the learned network's
	// posterior for a missing a2 must depend on the object's a1.
	rng := rand.New(rand.NewSource(81))
	truth := bayesnet.MustNew([]bayesnet.Node{
		{Name: "a1", Levels: 2, CPT: []float64{0.5, 0.5}},
		{Name: "a2", Levels: 2, Parents: []int{0}, CPT: []float64{0.95, 0.05, 0.05, 0.95}},
	})
	d := dataset.New([]dataset.Attribute{{Name: "a1", Levels: 2}, {Name: "a2", Levels: 2}})
	for i := 0; i < 400; i++ {
		row := truth.Sample(rng)
		d.MustAppend(dataset.Object{ID: "", Cells: []dataset.Cell{dataset.Known(row[0]), dataset.Known(row[1])}})
	}
	// Two incomplete probe objects.
	d.MustAppend(dataset.Object{ID: "hi", Cells: []dataset.Cell{dataset.Known(1), dataset.Unknown()}})
	d.MustAppend(dataset.Object{ID: "lo", Cells: []dataset.Cell{dataset.Known(0), dataset.Unknown()}})

	dists, err := Preprocess(d, Options{LearnOpts: bayesnet.LearnOptions{Rng: rng}})
	if err != nil {
		t.Fatal(err)
	}
	hi := dists[ctable.Var{Obj: 400, Attr: 1}]
	lo := dists[ctable.Var{Obj: 401, Attr: 1}]
	if hi[1] < 0.8 || lo[1] > 0.2 {
		t.Fatalf("learned posteriors hi=%v lo=%v; dependence not captured", hi, lo)
	}
}

func TestPreprocessFallsBackWithFewCompleteRows(t *testing.T) {
	d := dataset.New([]dataset.Attribute{{Name: "a1", Levels: 2}, {Name: "a2", Levels: 2}})
	for i := 0; i < 10; i++ {
		d.MustAppend(dataset.Object{ID: "", Cells: []dataset.Cell{dataset.Known(1), dataset.Unknown()}})
	}
	dists, err := Preprocess(d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(dists) != 10 {
		t.Fatalf("got %d distributions, want 10", len(dists))
	}
	for v, dist := range dists {
		sum := 0.0
		for _, p := range dist {
			sum += p
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("distribution for %v sums to %v", v, sum)
		}
	}
}

func TestConditionDist(t *testing.T) {
	base := []float64{0.1, 0.2, 0.3, 0.4}
	got := conditionDist(base, 1, 2)
	want := []float64{0, 0.4, 0.6, 0}
	for v := range want {
		if math.Abs(got[v]-want[v]) > 1e-12 {
			t.Fatalf("conditionDist = %v, want %v", got, want)
		}
	}
	// Full interval is a no-op renormalisation.
	full := conditionDist(base, 0, 3)
	for v := range base {
		if math.Abs(full[v]-base[v]) > 1e-12 {
			t.Fatalf("full-interval conditionDist = %v", full)
		}
	}
	// Zero-mass interval falls back to uniform over the interval.
	zero := conditionDist([]float64{0.5, 0.5, 0, 0}, 2, 3)
	if math.Abs(zero[2]-0.5) > 1e-12 || math.Abs(zero[3]-0.5) > 1e-12 {
		t.Fatalf("zero-mass conditionDist = %v", zero)
	}
}

func TestPosteriorCacheConsistency(t *testing.T) {
	// Objects with identical observed profiles must get bitwise-equal
	// posteriors, and different profiles must differ.
	net := bayesnet.MustNew([]bayesnet.Node{
		{Name: "a1", Levels: 2, CPT: []float64{0.5, 0.5}},
		{Name: "a2", Levels: 2, Parents: []int{0}, CPT: []float64{0.8, 0.2, 0.2, 0.8}},
	})
	d := dataset.New([]dataset.Attribute{{Name: "a1", Levels: 2}, {Name: "a2", Levels: 2}})
	d.MustAppend(dataset.Object{ID: "x", Cells: []dataset.Cell{dataset.Known(1), dataset.Unknown()}})
	d.MustAppend(dataset.Object{ID: "y", Cells: []dataset.Cell{dataset.Known(1), dataset.Unknown()}})
	d.MustAppend(dataset.Object{ID: "z", Cells: []dataset.Cell{dataset.Known(0), dataset.Unknown()}})
	dists := posteriors(d, net)
	x := dists[ctable.Var{Obj: 0, Attr: 1}]
	y := dists[ctable.Var{Obj: 1, Attr: 1}]
	z := dists[ctable.Var{Obj: 2, Attr: 1}]
	for v := range x {
		if math.Float64bits(x[v]) != math.Float64bits(y[v]) {
			t.Errorf("identical evidence gave posteriors %v and %v", x, y)
		}
	}
	if math.Abs(x[1]-z[1]) < 1e-9 {
		t.Error("different evidence produced identical posteriors")
	}
}

func TestStrategyStringInCore(t *testing.T) {
	if FBS.String() != "FBS" || UBS.String() != "UBS" || HHS.String() != "HHS" {
		t.Fatal("Strategy.String broken")
	}
	if s := Strategy(99).String(); s == "" {
		t.Fatal("unknown strategy produced empty string")
	}
}

func TestLearnNetworkStandalone(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	d := dataset.GenNBA(rng, 200)
	net, err := LearnNetwork(d, bayesnet.LearnOptions{Rng: rng})
	if err != nil {
		t.Fatal(err)
	}
	if net.NumNodes() != d.NumAttrs() {
		t.Fatalf("learned %d nodes for %d attributes", net.NumNodes(), d.NumAttrs())
	}
	// Too few complete rows errors.
	if _, err := LearnNetwork(dataset.SampleMovies(), bayesnet.LearnOptions{}); err == nil {
		t.Fatal("LearnNetwork accepted a 5-row dataset")
	}
}

func TestRunSurfacesPreprocessError(t *testing.T) {
	// Mismatched network schema must surface as an error from Run.
	d := dataset.SampleMovies()
	net := bayesnet.MustNew([]bayesnet.Node{
		{Name: "only", Levels: 2, CPT: []float64{0.5, 0.5}},
	})
	platform := crowd.NewSimulated(d, 1.0, nil)
	if _, err := Run(d, platform, Options{Budget: 1, Latency: 1, Net: net}); err == nil {
		t.Fatal("Run accepted a mismatched network")
	}
}

type failingImputer struct{}

func (failingImputer) Distributions(*dataset.Dataset) (prob.Dists, error) {
	return nil, fmt.Errorf("boom")
}

func TestRunWithDistsValidatesOptions(t *testing.T) {
	d := dataset.SampleMovies()
	platform := crowd.NewSimulated(d, 1.0, nil)
	if _, err := RunWithDists(d, prob.Dists{}, platform, Options{Budget: 0, Latency: 1}); err == nil {
		t.Fatal("RunWithDists accepted zero budget")
	}
}

func TestImputerErrorSurfaces(t *testing.T) {
	d := dataset.SampleMovies()
	platform := crowd.NewSimulated(d, 1.0, nil)
	if _, err := Run(d, platform, Options{Budget: 1, Latency: 1, Imputer: failingImputer{}}); err == nil {
		t.Fatal("Run swallowed the imputer error")
	}
}

// nbaWithNet returns an NBA-shaped dataset of n rows with 10% of cells
// missing and a network learned from it.
func nbaWithNet(tb testing.TB, seed int64, n int) (*dataset.Dataset, *bayesnet.Network) {
	tb.Helper()
	rng := rand.New(rand.NewSource(seed))
	d := dataset.GenNBA(rng, n).InjectMissing(rng, 0.1)
	net, err := LearnNetwork(d, bayesnet.LearnOptions{Rng: rng})
	if err != nil {
		tb.Fatal(err)
	}
	return d, net
}

func TestPreprocessSharedNetConcurrent(t *testing.T) {
	// Options.Net documents sharing one network across queries: eight
	// concurrent preprocessing runs over one fresh network must race on
	// nothing and match a sequential run bit for bit.
	d, net := nbaWithNet(t, 29, 500)
	const runs = 8
	got := make([]prob.Dists, runs)
	errs := make([]error, runs)
	var wg sync.WaitGroup
	for r := 0; r < runs; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			got[r], errs[r] = Preprocess(d, Options{Net: net})
		}(r)
	}
	wg.Wait()
	want, err := Preprocess(d, Options{Net: net})
	if err != nil {
		t.Fatal(err)
	}
	for r := range got {
		if errs[r] != nil {
			t.Fatalf("run %d: %v", r, errs[r])
		}
		if len(got[r]) != len(want) {
			t.Fatalf("run %d: %d distributions, want %d", r, len(got[r]), len(want))
		}
		for v, w := range want {
			g := got[r][v]
			if len(g) != len(w) {
				t.Fatalf("run %d: %v has %d levels, want %d", r, v, len(g), len(w))
			}
			for k := range w {
				if math.Float64bits(g[k]) != math.Float64bits(w[k]) {
					t.Fatalf("run %d: %v = %v, sequential %v", r, v, g, w)
				}
			}
		}
	}
}

func BenchmarkPreprocessNBA10k(b *testing.B) {
	d, net := nbaWithNet(b, 1, 10_000)
	opt := Options{Net: net}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Preprocess(d, opt); err != nil {
			b.Fatal(err)
		}
	}
}
