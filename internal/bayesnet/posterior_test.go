package bayesnet_test

import (
	"math"
	"math/rand"
	"testing"

	"bayescrowd/internal/bayesnet"
	"bayescrowd/internal/dataset"
)

// checkBits asserts that the kernel (PosteriorInto and the Posterior
// wrapper) and the reference engine agree on every bit of every entry.
func checkBits(t *testing.T, n *bayesnet.Network, target int, evidence map[int]int) {
	t.Helper()
	dense := make([]int, n.NumNodes())
	for i := range dense {
		dense[i] = -1
	}
	for v, val := range evidence {
		dense[v] = val
	}
	into := make([]float64, n.Nodes[target].Levels)
	n.PosteriorInto(target, dense, into)
	wrapped := n.Posterior(target, evidence)
	want := bayesnet.ReferencePosterior(n, target, evidence)
	for v := range want {
		w := math.Float64bits(want[v])
		if math.Float64bits(into[v]) != w || math.Float64bits(wrapped[v]) != w {
			t.Fatalf("Posterior(%d, %v): kernel %v, wrapper %v, reference %v (entry %d)",
				target, evidence, into, wrapped, want, v)
		}
	}
}

// sparseNetwork builds a random DAG whose nodes may have a single level
// and whose CPT rows may contain exact zeros, so that some evidence has
// probability zero.
func sparseNetwork(rng *rand.Rand, nNodes int) *bayesnet.Network {
	nodes := make([]bayesnet.Node, nNodes)
	for i := range nodes {
		levels := 1 + rng.Intn(4)
		var parents []int
		for p := 0; p < i; p++ {
			if len(parents) < 3 && rng.Float64() < 0.5 {
				parents = append(parents, p)
			}
		}
		cfgs := 1
		for _, p := range parents {
			cfgs *= nodes[p].Levels
		}
		cpt := make([]float64, cfgs*levels)
		for c := 0; c < cfgs; c++ {
			row := cpt[c*levels : (c+1)*levels]
			sum := 0.0
			for v := range row {
				if v == 0 || rng.Float64() < 0.6 {
					row[v] = rng.Float64() + 0.01
				}
				sum += row[v]
			}
			for v := range row {
				row[v] /= sum
			}
		}
		nodes[i] = bayesnet.Node{Name: string(rune('A' + i)), Levels: levels, Parents: parents, CPT: cpt}
	}
	return bayesnet.MustNew(nodes)
}

// checkHiddenSizes compares every target under random evidence with
// every number of other hidden nodes, 0 to n-1.
func checkHiddenSizes(t *testing.T, rng *rand.Rand, n *bayesnet.Network) {
	t.Helper()
	for target := 0; target < n.NumNodes(); target++ {
		for hidden := 0; hidden < n.NumNodes(); hidden++ {
			others := rng.Perm(n.NumNodes())
			evidence := map[int]int{}
			h := 0
			for _, v := range others {
				switch {
				case v == target:
				case h < hidden:
					h++
				default:
					evidence[v] = rng.Intn(n.Nodes[v].Levels)
				}
			}
			checkBits(t, n, target, evidence)
		}
	}
}

// learnedNetwork learns a network from n rows sampled from truth with
// 10% of the cells hidden, returning it with the incomplete data.
func learnedNetwork(t *testing.T, rng *rand.Rand, gen func(*rand.Rand, int) *dataset.Dataset, rows int) (*bayesnet.Network, *dataset.Dataset) {
	t.Helper()
	d := gen(rng, rows).InjectMissing(rng, 0.1)
	names, levels := d.Schema()
	net, err := bayesnet.LearnStructure(names, levels, d.CompleteRows(), bayesnet.LearnOptions{Rng: rng})
	if err != nil {
		t.Fatal(err)
	}
	return net, d
}

func TestPosteriorBitIdenticalToReference(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	t.Run("random", func(t *testing.T) {
		for trial := 0; trial < 30; trial++ {
			checkHiddenSizes(t, rng, bayesnet.RandomNetwork(rng, 2+rng.Intn(6), 4))
		}
	})
	t.Run("one-level-and-zeros", func(t *testing.T) {
		for trial := 0; trial < 30; trial++ {
			checkHiddenSizes(t, rng, sparseNetwork(rng, 2+rng.Intn(6)))
		}
	})
	t.Run("zero-probability-evidence", func(t *testing.T) {
		n := bayesnet.MustNew([]bayesnet.Node{
			{Name: "A", Levels: 2, CPT: []float64{1, 0}},
			{Name: "B", Levels: 2, Parents: []int{0}, CPT: []float64{1, 0, 0, 1}},
			{Name: "C", Levels: 3, CPT: []float64{0.2, 0.3, 0.5}},
		})
		checkBits(t, n, 2, map[int]int{1: 1})
		checkBits(t, n, 0, map[int]int{1: 1})
		checkBits(t, n, 2, map[int]int{0: 0, 1: 1})
	})
	learned := []struct {
		name string
		gen  func(*rand.Rand, int) *dataset.Dataset
	}{
		{"nba", dataset.GenNBA},
		{"adult", dataset.GenAdultSynthetic},
	}
	for _, l := range learned {
		t.Run(l.name, func(t *testing.T) {
			net, d := learnedNetwork(t, rng, l.gen, 2000)
			cells := 0
			for _, o := range d.Objects {
				evidence := map[int]int{}
				for j, c := range o.Cells {
					if !c.Missing {
						evidence[j] = c.Value
					}
				}
				for j, c := range o.Cells {
					if c.Missing {
						checkBits(t, net, j, evidence)
						cells++
					}
				}
			}
			if cells == 0 {
				t.Fatal("no missing cells to compare")
			}
		})
	}
}
