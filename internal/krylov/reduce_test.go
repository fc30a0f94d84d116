package krylov

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
)

// exactDot returns Σ aᵢbᵢ and Σ |aᵢbᵢ| rounded once from exact sums: every
// product of two float64s is exact in 106 bits, and the sums are carried in
// enough bits that no partial sum rounds.
func exactDot(a, b []float64) (sum, abs float64) {
	s := new(big.Float).SetPrec(2200)
	m := new(big.Float).SetPrec(2200)
	for i := range a {
		p := new(big.Float).SetPrec(110).Mul(big.NewFloat(a[i]), big.NewFloat(b[i]))
		s.Add(s, p)
		m.Add(m, p.Abs(p))
	}
	sum, _ = s.Float64()
	abs, _ = m.Float64()
	return sum, abs
}

// dot and norm2 keep four partial sums; every tail length (0–9, so each
// n mod 4 before and after one full pass) and one long vector must stay
// within the classical bound of a reordered sum, n·ε·Σ|aᵢbᵢ| (Higham,
// Accuracy and Stability of Numerical Algorithms, ch. 3), against an exact
// reference.
func TestDotAndNorm2MatchExactSums(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	const eps = 0x1p-52
	lengths := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 3001}
	for _, n := range lengths {
		for trial := 0; trial < 20; trial++ {
			a, b := make([]float64, n), make([]float64, n)
			for i := range a {
				// Mixed signs and magnitudes, so cancellation is exercised.
				a[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(7)-3))
				b[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(7)-3))
			}
			want, abs := exactDot(a, b)
			if got := dot(a, b); math.Abs(got-want) > float64(n)*eps*abs {
				t.Fatalf("n=%d trial %d: dot = %v, exact %v (bound %v)", n, trial, got, want, float64(n)*eps*abs)
			}
			ss, _ := exactDot(a, a)
			want = math.Sqrt(ss)
			if got := norm2(a); math.Abs(got-want) > float64(n+1)*eps*want {
				t.Fatalf("n=%d trial %d: norm2 = %v, exact %v", n, trial, got, want)
			}
		}
	}
}
