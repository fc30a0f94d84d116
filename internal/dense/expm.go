package dense

import "math"

// Padé approximant coefficients for expm (Higham, "The scaling and squaring
// method for the matrix exponential revisited", 2005). padeCoeffs[m] are the
// b_i for the degree-m diagonal approximant.
var padeCoeffs = map[int][]float64{
	3: {120, 60, 12, 1},
	5: {30240, 15120, 3360, 420, 30, 1},
	7: {17297280, 8648640, 1995840, 277200, 25200, 1512, 56, 1},
	9: {17643225600, 8821612800, 2075673600, 302702400, 30270240, 2162160, 110880, 3960, 90, 1},
	13: {64764752532480000, 32382376266240000, 7771770303897600, 1187353796428800,
		129060195264000, 10559470521600, 670442572800, 33522128640, 1323241920,
		40840800, 960960, 16380, 182, 1},
}

// theta_m bounds for backward-stable degree selection (Higham 2005, Table 2.3).
var padeTheta = map[int]float64{
	3:  1.495585217958292e-2,
	5:  2.539398330063230e-1,
	7:  9.504178996162932e-1,
	9:  2.097847961257068,
	13: 5.371920351148152,
}

// Expm returns e^A computed with the scaling-and-squaring Padé method, the
// same algorithm family as MATLAB's expm used by the paper for the small
// Hessenberg matrices H_m. A must be square.
func Expm(a *Matrix) (*Matrix, error) {
	out := new(Matrix)
	if err := ExpmInto(out, a, new(ExpmScratch)); err != nil {
		return nil, err
	}
	return out, nil
}

// ExpmScratch is the working storage of ExpmInto: the even powers of A, the
// Padé sums, the denominator's LU and the squaring buffer. The zero value
// is ready; each buffer grows to the largest matrix it has held, so an
// exponential no larger than an earlier one allocates nothing.
type ExpmScratch struct {
	pow       [5]Matrix // I, A², A⁴, A⁶, A⁸
	s1, s2, t Matrix    // Padé sums and products
	u, scaled Matrix    // U; the scaled A, then the squaring buffer
	lu        LU
}

// ExpmInto writes e^A into dst (Reset's growth rule), as Expm does, using w
// for every intermediate. dst must share no storage with a.
func ExpmInto(dst, a *Matrix, w *ExpmScratch) error {
	if a.R != a.C {
		panic("dense: Expm needs a square matrix")
	}
	n := a.R
	if n == 0 {
		dst.Reset(0, 0)
		return nil
	}
	if n == 1 {
		dst.Reset(1, 1).Data[0] = math.Exp(a.Data[0])
		return nil
	}
	norm := a.OneNorm()
	for _, m := range []int{3, 5, 7, 9} {
		if norm <= padeTheta[m] {
			return padeExp(dst, a, m, w)
		}
	}
	// Degree 13 with scaling and squaring.
	s := 0
	if norm > padeTheta[13] {
		s = int(math.Ceil(math.Log2(norm / padeTheta[13])))
	}
	scaled := w.scaled.CopyFrom(a).Scale(math.Ldexp(1, -s))
	if err := padeExp(dst, scaled, 13, w); err != nil {
		return err
	}
	for i := 0; i < s; i++ {
		dst.CopyFrom(MulInto(&w.scaled, dst, dst))
	}
	return nil
}

// padeExp writes the degree-m diagonal Padé approximant r_m(A) into dst.
// It uses every buffer of w except scaled, which may hold a.
func padeExp(dst, a *Matrix, m int, w *ExpmScratch) error {
	b := padeCoeffs[m]
	n := a.R
	id := w.pow[0].setEye(n)
	a2 := MulInto(&w.pow[1], a, a)
	var u, v *Matrix
	switch m {
	case 3, 5, 7, 9:
		// pow[k] = A^{2k}.
		for k := 2; 2*(k-1) < m-1; k++ {
			MulInto(&w.pow[k], &w.pow[k-1], a2)
		}
		usum := w.s1.Reset(n, n)
		vsum := w.s2.Reset(n, n)
		for k := 0; 2*k+1 <= m; k++ {
			addInto(usum, 1, usum, b[2*k+1], &w.pow[k])
		}
		for k := 0; 2*k <= m; k++ {
			addInto(vsum, 1, vsum, b[2*k], &w.pow[k])
		}
		u = MulInto(&w.u, a, usum)
		v = vsum
	case 13:
		a4 := MulInto(&w.pow[2], a2, a2)
		a6 := MulInto(&w.pow[3], a4, a2)
		w1 := addInto(&w.s1, b[13], a6, b[11], a4)
		addInto(w1, 1, w1, b[9], a2)
		w2 := addInto(&w.s2, b[7], a6, b[5], a4)
		addInto(w2, 1, w2, b[3], a2)
		addInto(w2, 1, w2, b[1], id)
		t := MulInto(&w.t, a6, w1)
		u = MulInto(&w.u, a, addInto(t, 1, t, 1, w2))
		z1 := addInto(w1, b[12], a6, b[10], a4)
		addInto(z1, 1, z1, b[8], a2)
		z2 := addInto(w2, b[6], a6, b[4], a4)
		addInto(z2, 1, z2, b[2], a2)
		addInto(z2, 1, z2, b[0], id)
		t = MulInto(&w.t, a6, z1)
		v = addInto(t, 1, t, 1, z2)
	default:
		panic("dense: unsupported Padé degree")
	}
	// r = (V-U)⁻¹ (V+U); s1 is free once U and V are formed.
	if err := w.lu.Factor(addInto(&w.s1, 1, v, -1, u)); err != nil {
		return err
	}
	w.lu.solveMatrixInto(dst, addInto(v, 1, v, 1, u))
	return nil
}

// ExpmVec returns e^{tA}·v without forming e^{tA} when A is larger than the
// crossover (it still forms the exponential; the helper exists to keep call
// sites tidy and to allow future optimization).
func ExpmVec(a *Matrix, t float64, v []float64) ([]float64, error) {
	e, err := Expm(a.Clone().Scale(t))
	if err != nil {
		return nil, err
	}
	return e.MulVec(v), nil
}
