package bayesnet

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// FuzzReadJSON checks the network parser never panics and that every
// accepted network is internally consistent (valid topology, normalised
// CPTs — enforced by New) and inference-safe, with the compiled kernel
// matching the reference engine bit for bit.
func FuzzReadJSON(f *testing.F) {
	var chainJSON bytes.Buffer
	if err := MustNew([]Node{
		{Name: "A", Levels: 2, CPT: []float64{0.3, 0.7}},
		{Name: "B", Levels: 2, Parents: []int{0}, CPT: []float64{0.9, 0.1, 0.2, 0.8}},
	}).WriteJSON(&chainJSON); err != nil {
		f.Fatal(err)
	}
	f.Add(chainJSON.String())
	f.Add(`{"nodes":[]}`)
	f.Add(`{"nodes":[{"name":"A","levels":1,"cpt":[1]}]}`)
	f.Add(`{"nodes":[{"name":"A","levels":2,"parents":[1],"cpt":[0.5,0.5]},{"name":"B","levels":2,"parents":[0],"cpt":[0.5,0.5]}]}`)
	f.Add(`not json at all`)
	f.Add(`{"nodes":[{"name":"A","levels":2,"cpt":[0.5,"x"]}]}`)

	f.Fuzz(func(t *testing.T, data string) {
		n, err := ReadJSON(strings.NewReader(data))
		if err != nil {
			return
		}
		if n.NumNodes() == 0 {
			return
		}
		// Inference over the accepted network must be well-formed and
		// bit-identical to the reference engine, for every target with
		// nothing observed and with every other node observed.
		for target := 0; target < n.NumNodes(); target++ {
			observed := map[int]int{}
			for i := range n.Nodes {
				if i != target {
					observed[i] = i % n.Nodes[i].Levels
				}
			}
			for _, evidence := range []map[int]int{nil, observed} {
				dist := n.Posterior(target, evidence)
				want := referencePosterior(n, target, evidence)
				sum := 0.0
				for v, p := range dist {
					if math.Float64bits(p) != math.Float64bits(want[v]) {
						t.Fatalf("Posterior(%d, %v) = %v, reference %v", target, evidence, dist, want)
					}
					if p < 0 || p > 1+1e-9 {
						t.Fatalf("posterior entry %v outside [0,1]", p)
					}
					sum += p
				}
				if sum < 1-1e-6 || sum > 1+1e-6 {
					t.Fatalf("posterior sums to %v", sum)
				}
			}
		}
	})
}
