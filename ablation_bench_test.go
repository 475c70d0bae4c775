package spanners

import (
	"fmt"
	"testing"

	"spanners/internal/workload"
)

// Ablation A1 — the sequential fast path of Theorem 5.7 versus the
// FPT fallback on the same (sequential) input: how much the boundary
// coalescing buys over the status-vector product.
func BenchmarkAblationSequentialVsFPT(b *testing.B) {
	expr := `.*(Seller: x{[^,\n]*}, ID\d*(, \$y{[^\n]*}|)\n).*`
	text := workload.LandRegistry(workload.LandRegistryOptions{Rows: 256, TaxProb: 0.5, Seed: 9})
	d := NewDocument(text)
	fast := engineRGX(b, MustCompile(expr).Expr())
	if !fast.Sequential() {
		b.Fatal("expected sequential")
	}
	b.Run("sequential-fastpath", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			fast.NonEmpty(d)
		}
	})
	slow := engineRGX(b, MustCompile(expr).Expr())
	slow.ForceFPT()
	b.Run("fpt-fallback", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			slow.NonEmpty(d)
		}
	})
}

// Ablation A2 — counting outputs with the memoized DP versus
// materializing them through enumeration.
func BenchmarkAblationCountVsEnumerate(b *testing.B) {
	s := MustCompile(`.*x{a+}.*`)
	eng := engineRGX(b, s.Expr())
	for _, n := range []int{64, 256} {
		d := NewDocument(workload.RepeatRow("a", n))
		b.Run(fmt.Sprintf("count/n%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				eng.Count(d)
			}
		})
		b.Run(fmt.Sprintf("enumerate/n%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c := 0
				eng.Enumerate(d, func(Mapping) bool { c++; return true })
			}
		})
	}
}

// Ablation A3 — the three enumeration strategies on one anchored
// workload (complements E7's delay measurements with totals).
func BenchmarkAblationEnumerators(b *testing.B) {
	s := MustCompile(`.*(k=x{\d+};\n).*`)
	row := "k=123;\n"
	d := NewDocument(workload.RepeatRow(row, 12))
	eng := engineRGX(b, s.Expr())
	b.Run("direct", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			eng.Enumerate(d, func(Mapping) bool { return true })
		}
	})
	b.Run("filtered-algorithm2", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			eng.EnumerateFiltered(d, func(Mapping) bool { return true })
		}
	})
	b.Run("verbatim-algorithm2", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			eng.EnumerateOracle(d, func(Mapping) bool { return true })
		}
	})
}
