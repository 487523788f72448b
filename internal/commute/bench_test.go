package commute

import (
	"fmt"
	"math/rand"
	"testing"

	"dyngraph/internal/graph"
)

// Ablation: exact pseudoinverse vs approximate embedding (the
// internal/commute design decision), and the embedding-dimension sweep
// behind Figure 5's "flat past k=10" finding, measured as build cost.

func benchGraph(n int) *graph.Graph {
	rng := rand.New(rand.NewSource(17))
	b := graph.NewBuilder(n)
	perm := rng.Perm(n)
	for i := 1; i < n; i++ {
		b.AddEdge(perm[i-1], perm[i], 0.5+rng.Float64())
	}
	for k := 0; k < 3*n; k++ {
		i, j := rng.Intn(n), rng.Intn(n)
		if i != j {
			b.SetEdge(i, j, 0.5+rng.Float64())
		}
	}
	return b.MustBuild()
}

func BenchmarkExactOracleBuild(b *testing.B) {
	for _, n := range []int{100, 300} {
		g := benchGraph(n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = NewExact(g)
			}
		})
	}
}

func BenchmarkEmbeddingBuild(b *testing.B) {
	for _, n := range []int{300, 3000} {
		g := benchGraph(n)
		for _, k := range []int{10, 50} {
			b.Run(fmt.Sprintf("n=%d/k=%d", n, k), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := NewEmbedding(g, nil, Config{K: k, Seed: 1}, nil); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func BenchmarkDistanceQuery(b *testing.B) {
	g := benchGraph(300)
	exact := NewExact(g)
	emb, err := NewEmbedding(g, nil, Config{K: 50, Seed: 1}, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("exact", func(b *testing.B) {
		var s float64
		for i := 0; i < b.N; i++ {
			s += exact.Distance(i%300, (i*7+1)%300)
		}
		_ = s
	})
	b.Run("embedding-k50", func(b *testing.B) {
		var s float64
		for i := 0; i < b.N; i++ {
			s += emb.Distance(i%300, (i*7+1)%300)
		}
		_ = s
	})
}
