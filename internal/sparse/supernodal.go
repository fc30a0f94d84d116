package sparse

import (
	"fmt"
	"math"
)

// The supernodal layer merges elimination-tree columns with (near-)identical
// patterns into supernodes — column panels stored dense — so the numeric
// refactorization and the triangular solves run on contiguous rank-k panel
// kernels instead of entry-at-a-time scalar arithmetic. The layout follows
// the CHOLMOD/SuperLU tradition: each supernode s spans a contiguous column
// range [c0, c1) of the permuted factor, its row list is the supernode's own
// columns followed by the below-block rows (the union of its columns'
// patterns, ascending), and its values live in one dense ns×w column-major
// panel inside a single shared array. Relaxed amalgamation pads a column's
// pattern up to the supernode union: padded entries are exact zeros (the
// fill pattern is closed, so every update product into a padded position has
// a structurally-zero factor), which keeps the supernodal factorization
// bit-compatible with an entry-wise one up to summation order. Patterns that
// amalgamate poorly (minimum degree on a 2D grid averages well under two
// columns per supernode) run through the same kernels: a width-1 panel is a
// plain sparse column, and the solve kernels take those without the
// below-block staging buffer.

// Panel shape bounds: the values the engine was tuned with on the PDN meshes
// (EXPERIMENTS.md, PR 6) and the only ones any caller ever ran, so they are
// constants rather than options.
const (
	// snMaxWidth caps the panel width (columns per supernode).
	snMaxWidth = 32
	// snRelaxFrac bounds relaxed amalgamation: two adjacent supernodes merge
	// only while the explicit zeros padded into the merged panel stay at or
	// below this fraction of its stored entries.
	snRelaxFrac = 0.25
)

// snLayout is the supernodal view of a Symbolic analysis: the column
// partition, per-supernode row lists and panel offsets, the input scatter
// map, and the descendant-update lists driving the left-looking
// factorization. Immutable after construction.
type snLayout struct {
	nsuper int
	ptr    []int32 // supernode s spans permuted columns ptr[s]..ptr[s+1]
	colSn  []int32 // permuted column -> owning supernode

	// Row list of supernode s: rows[rowPtr[s]:rowPtr[s+1]], the s's own
	// columns first (the dense diagonal block) then the below-block rows,
	// ascending. valPtr[s] is the offset of s's ns×w column-major panel in
	// the factor's snValues array; column k of the panel stores rows
	// k..ns-1 (positions above the block diagonal are unused).
	rowPtr  []int
	rows    []int32
	valPtr  []int
	maxRows int // widest row list, sizing the solve gather scratch
	maxW    int // widest panel
	nzTotal int // total panel storage (== valPtr[nsuper])

	// Input scatter: entry q of supernode s's list draws a.Values[aSrc[q]]
	// onto panel offset aOff[q] (relative to valPtr[s]).
	aPtr []int
	aSrc []int32
	aOff []int32

	// Descendant updates: target supernode s receives, for each q in
	// updPtr[s]:updPtr[s+1], the rank-w_d update of descendant updSrc[q]
	// whose below rows updOff[q]:updEnd[q] fall inside s's column range.
	updPtr []int
	updSrc []int32
	updOff []int32
	updEnd []int32
}

// bytes estimates the resident size of the layout for cache accounting.
func (sn *snLayout) bytes() int64 {
	return int64(len(sn.rows)+len(sn.colSn)+len(sn.aSrc)+len(sn.aOff)+3*len(sn.updSrc))*4 +
		int64(sn.nsuper)*40
}

// buildSupernodes detects fundamental supernodes on the freshly computed
// column pattern, applies relaxed amalgamation, and emits the panel layout
// and the scatter and update maps. up is the permuted upper triangle the
// pattern was computed from.
func (s *Symbolic) buildSupernodes(up upperTri) {
	n := s.n
	const maxW, relax = snMaxWidth, snRelaxFrac

	height := func(j int) int { return s.colptr[j+1] - s.colptr[j] }

	// Pass 1: fundamental supernode boundaries. Column j extends the run
	// when its predecessor's pattern is {j} ∪ pattern(j) — parent link plus
	// count match — capped at the panel width bound.
	type bounds struct{ c0, c1 int }
	var snB []bounds
	start := 0
	for j := 1; j <= n; j++ {
		if j == n || s.parent[j-1] != int32(j) || height(j-1) != height(j)+1 || j-start >= maxW {
			snB = append(snB, bounds{start, j})
			start = j
		}
	}

	// Pass 2: relaxed amalgamation of etree-adjacent runs. The running
	// group keeps its merged below-row list (rows ≥ the group end) and its
	// exact strictly-below entry count; a candidate merge recomputes both
	// and is accepted while the padded zeros stay under the relax bound.
	// The below list of a fundamental run is exactly the pattern of its
	// last column (nesting), which seeds each group for free.
	var (
		outPtr  = make([]int32, 1, len(snB)+1)
		rowPtr  = []int{0}
		rowsArr []int32
		curB    = make([]int32, 0, n)
		tmpB    = make([]int32, 0, n)
	)
	flush := func(c0, c1 int) {
		for j := c0; j < c1; j++ {
			rowsArr = append(rowsArr, int32(j))
		}
		rowsArr = append(rowsArr, curB...)
		rowPtr = append(rowPtr, len(rowsArr))
		outPtr = append(outPtr, int32(c1))
	}
	tailPattern := func(c1 int) []int32 {
		// pattern of column c1-1 as int32 (strictly-below rows, ascending)
		curB = curB[:0]
		for q := s.colptr[c1-1]; q < s.colptr[c1]; q++ {
			curB = append(curB, s.rowidx[q])
		}
		return curB
	}
	if len(snB) > 0 {
		g := snB[0]
		tailPattern(g.c1)
		act := 0
		for j := g.c0; j < g.c1; j++ {
			act += height(j)
		}
		for _, f := range snB[1:] {
			w := f.c1 - g.c0
			merged := false
			if w <= maxW && s.parent[g.c1-1] == int32(f.c0) {
				// Bm = (curB ≥ f.c1) ∪ pattern(f.c1-1), both ascending.
				tmpB = tmpB[:0]
				i := 0
				for i < len(curB) && int(curB[i]) < f.c1 {
					i++
				}
				qa, qb := i, s.colptr[f.c1-1]
				for qa < len(curB) || qb < s.colptr[f.c1] {
					switch {
					case qb >= s.colptr[f.c1] || (qa < len(curB) && curB[qa] < s.rowidx[qb]):
						tmpB = append(tmpB, curB[qa])
						qa++
					case qa >= len(curB) || s.rowidx[qb] < curB[qa]:
						tmpB = append(tmpB, s.rowidx[qb])
						qb++
					default:
						tmpB = append(tmpB, curB[qa])
						qa++
						qb++
					}
				}
				actNew := act
				for j := f.c0; j < f.c1; j++ {
					actNew += height(j)
				}
				stored := w*(w+1)/2 + w*len(tmpB)
				zeros := stored - (actNew + w)
				if float64(zeros) <= relax*float64(stored) {
					g.c1 = f.c1
					act = actNew
					curB, tmpB = tmpB, curB
					merged = true
				}
			}
			if !merged {
				flush(g.c0, g.c1)
				g = f
				tailPattern(g.c1)
				act = 0
				for j := g.c0; j < g.c1; j++ {
					act += height(j)
				}
			}
		}
		flush(g.c0, g.c1)
	}
	nsuper := len(outPtr) - 1

	sn := &snLayout{
		nsuper: nsuper,
		ptr:    outPtr,
		rowPtr: rowPtr,
		rows:   rowsArr,
		colSn:  make([]int32, n),
	}
	sn.valPtr = make([]int, nsuper+1)
	for t := 0; t < nsuper; t++ {
		c0, c1 := int(sn.ptr[t]), int(sn.ptr[t+1])
		w := c1 - c0
		ns := sn.rowPtr[t+1] - sn.rowPtr[t]
		if ns > sn.maxRows {
			sn.maxRows = ns
		}
		if w > sn.maxW {
			sn.maxW = w
		}
		sn.valPtr[t+1] = sn.valPtr[t] + ns*w
		for j := c0; j < c1; j++ {
			sn.colSn[j] = int32(t)
		}
	}
	sn.nzTotal = sn.valPtr[nsuper]

	// Input scatter map. Upper-triangle entry (i ≤ k) of the permuted
	// matrix is, by symmetry, the lower-triangle entry at column i, row k —
	// it lands in column i's supernode. Bucket the entries by target
	// supernode, then resolve panel offsets supernode-major through a
	// row → local-index map.
	nnzU := len(up.src)
	cnt := make([]int, nsuper+1)
	for _, i := range up.row {
		cnt[sn.colSn[i]+1]++
	}
	for t := 0; t < nsuper; t++ {
		cnt[t+1] += cnt[t]
	}
	sn.aPtr = cnt
	sn.aSrc = make([]int32, nnzU)
	sn.aOff = make([]int32, nnzU)
	tmpCol := make([]int32, nnzU)
	next := make([]int, nsuper)
	copy(next, sn.aPtr[:nsuper])
	for k := 0; k < n; k++ {
		for q := up.colptr[k]; q < up.colptr[k+1]; q++ {
			i := up.row[q]
			t := sn.colSn[i]
			pos := next[t]
			next[t]++
			sn.aSrc[pos] = up.src[q]
			sn.aOff[pos] = int32(k) // row, resolved to an offset below
			tmpCol[pos] = i
		}
	}
	smap := make([]int32, n)
	for t := 0; t < nsuper; t++ {
		c0 := int(sn.ptr[t])
		rb := sn.rowPtr[t]
		ns := sn.rowPtr[t+1] - rb
		for li, r := range sn.rows[rb : rb+ns] {
			smap[r] = int32(li)
		}
		for q := sn.aPtr[t]; q < sn.aPtr[t+1]; q++ {
			sn.aOff[q] = int32((int(tmpCol[q])-c0)*ns + int(smap[sn.aOff[q]]))
		}
	}

	// Descendant-update lists: each supernode's below rows, segmented by
	// owning ancestor supernode, become one (descendant, row span) record
	// on that ancestor.
	ucnt := make([]int, nsuper+1)
	for d := 0; d < nsuper; d++ {
		w := int(sn.ptr[d+1] - sn.ptr[d])
		below := sn.rows[sn.rowPtr[d]+w : sn.rowPtr[d+1]]
		for i := 0; i < len(below); {
			t := sn.colSn[below[i]]
			j := i + 1
			for j < len(below) && sn.colSn[below[j]] == t {
				j++
			}
			ucnt[t+1]++
			i = j
		}
	}
	for t := 0; t < nsuper; t++ {
		ucnt[t+1] += ucnt[t]
	}
	sn.updPtr = ucnt
	nupd := ucnt[nsuper]
	sn.updSrc = make([]int32, nupd)
	sn.updOff = make([]int32, nupd)
	sn.updEnd = make([]int32, nupd)
	unext := make([]int, nsuper)
	copy(unext, sn.updPtr[:nsuper])
	for d := 0; d < nsuper; d++ {
		w := int(sn.ptr[d+1] - sn.ptr[d])
		below := sn.rows[sn.rowPtr[d]+w : sn.rowPtr[d+1]]
		for i := 0; i < len(below); {
			t := sn.colSn[below[i]]
			j := i + 1
			for j < len(below) && sn.colSn[below[j]] == t {
				j++
			}
			pos := unext[t]
			unext[t]++
			sn.updSrc[pos] = int32(d)
			sn.updOff[pos] = int32(i)
			sn.updEnd[pos] = int32(j)
			i = j
		}
	}

	s.sn = sn
}

// Supernodes returns the number of supernodes (column panels) in the
// analysis.
func (s *Symbolic) Supernodes() int { return s.sn.nsuper }

// refactorSN is the supernodal numeric factorization: scatter the input
// into zeroed panels, then left-looking over supernodes — apply every
// descendant's rank-w_d update with dense column kernels, then factor the
// panel in place (right-looking rank-1 sweeps inside the diagonal block,
// one contiguous scaled column at a time).
func (s *Symbolic) refactorSN(f *LDLT, a *CSC) error {
	sn := s.sn
	sp := f.snValues
	for i := range sp {
		sp[i] = 0
	}
	av := a.Values
	for t := 0; t < sn.nsuper; t++ {
		base := sn.valPtr[t]
		for q := sn.aPtr[t]; q < sn.aPtr[t+1]; q++ {
			sp[base+int(sn.aOff[q])] += av[sn.aSrc[q]]
		}
	}
	smap, dv, dinv, coeff, tmp := f.smap, f.d, f.dinv, f.coeff, f.uptmp
	for t := 0; t < sn.nsuper; t++ {
		c0, c1 := int(sn.ptr[t]), int(sn.ptr[t+1])
		w := c1 - c0
		rb := sn.rowPtr[t]
		ns := sn.rowPtr[t+1] - rb
		rows := sn.rows[rb : rb+ns]
		base := sn.valPtr[t]
		for li, r := range rows {
			smap[r] = int32(li)
		}
		// Descendant updates: for each target column ct of this supernode
		// covered by descendant d, accumulate U(:,t) = Σ_k d_k·L(ct,k)·L(:,k)
		// over d's below rows (contiguous panel columns), then scatter once.
		for u := sn.updPtr[t]; u < sn.updPtr[t+1]; u++ {
			d := int(sn.updSrc[u])
			off1, off2 := int(sn.updOff[u]), int(sn.updEnd[u])
			dbase := sn.valPtr[d]
			drb := sn.rowPtr[d]
			nsd := sn.rowPtr[d+1] - drb
			wd := int(sn.ptr[d+1] - sn.ptr[d])
			c0d := int(sn.ptr[d])
			dbelow := sn.rows[drb+wd : drb+nsd]
			nb := len(dbelow)
			for tt := off1; tt < off2; tt++ {
				ct := int(dbelow[tt])
				cb := base + (ct-c0)*ns
				for k := 0; k < wd; k++ {
					coeff[k] = sp[dbase+k*nsd+wd+tt] * dv[c0d+k]
				}
				m := nb - tt
				acc := tmp[:m]
				// Rank-wd accumulate, source columns in pairs: each pass
				// streams two panel columns against one hot acc buffer,
				// halving the per-flop memory traffic of the rank-1 form.
				var k int
				if wd&1 == 1 {
					c0k := coeff[0]
					col := sp[dbase+wd+tt : dbase+wd+nb]
					for r := 0; r < m; r++ {
						acc[r] = c0k * col[r]
					}
					k = 1
				} else {
					c0k, c1k := coeff[0], coeff[1]
					col0 := sp[dbase+wd+tt : dbase+wd+nb]
					col1 := sp[dbase+nsd+wd+tt : dbase+nsd+wd+nb]
					for r := 0; r < m; r++ {
						acc[r] = c0k*col0[r] + c1k*col1[r]
					}
					k = 2
				}
				for ; k+1 < wd; k += 2 {
					c0k, c1k := coeff[k], coeff[k+1]
					col0 := sp[dbase+k*nsd+wd+tt : dbase+k*nsd+wd+nb]
					col1 := sp[dbase+(k+1)*nsd+wd+tt : dbase+(k+1)*nsd+wd+nb]
					for r := 0; r < m; r++ {
						acc[r] += c0k*col0[r] + c1k*col1[r]
					}
				}
				tr := dbelow[tt:]
				for r := 0; r < m; r++ {
					sp[cb+int(smap[tr[r]])] -= acc[r]
				}
			}
		}
		// Dense in-panel factorization.
		for k := 0; k < w; k++ {
			ck := base + k*ns
			dk := sp[ck+k]
			if dk == 0 || math.IsNaN(dk) {
				return fmt.Errorf("%w: zero pivot at column %d in LDLT", ErrSingular, c0+k)
			}
			dv[c0+k] = dk
			inv := 1 / dk
			dinv[c0+k] = inv
			for j := k + 1; j < w; j++ {
				yj := sp[ck+j]
				if yj == 0 {
					continue
				}
				cjk := yj * inv
				colk := sp[ck+j : ck+ns]
				colj := sp[base+j*ns+j : base+j*ns+ns]
				for r := range colj {
					colj[r] -= cjk * colk[r]
				}
			}
			colk := sp[ck+k+1 : ck+ns]
			for r := range colk {
				colk[r] *= inv
			}
		}
	}
	return nil
}

// fwdSN runs the sequential supernodal forward solve L·z = work in place:
// per supernode, a dense unit-lower solve on the diagonal block, then the
// below-block contribution accumulated contiguously in g and one scatter
// through the row list — one random write per below row instead of one per
// factor entry. Every pass carries independent partial sums, so no pass
// waits on the latency of its own previous add: the diagonal block resolves
// two unknowns and then sweeps the rows below them once, and the below
// block streams four panel columns per pass against g, the w mod 4 leading
// columns first. The summation order is a fixed function of the panel
// shape, so a right-hand side always solves to the same bits.
func (f *LDLT) fwdSN(work, g []float64) {
	sn := f.sym.sn
	sp := f.snValues
	for t := 0; t < sn.nsuper; t++ {
		c0 := int(sn.ptr[t])
		w := int(sn.ptr[t+1]) - c0
		rb := sn.rowPtr[t]
		ns := sn.rowPtr[t+1] - rb
		base := sn.valPtr[t]
		nb := ns - w
		if w == 1 {
			// A singleton panel is a plain sparse column: no diagonal block
			// and nothing to accumulate, so the staging buffer is skipped.
			// The conversion keeps the product rounded on its own even
			// where the compiler fuses multiply-adds.
			x0 := work[c0]
			col := sp[base+1 : base+ns]
			for i, r := range sn.rows[rb+1 : rb+ns] {
				work[r] -= float64(col[i] * x0)
			}
			continue
		}
		// Unit-lower solve of the w×w diagonal block, two columns per
		// pass: x1 is resolved from x0, then one sweep takes both off the
		// block rows below them. An odd last column has no rows below it.
		blk := work[c0:][:w]
		for k := 0; k+1 < w; k += 2 {
			col0 := sp[base+k*ns:][:w]
			col1 := sp[base+(k+1)*ns:][:w]
			x0 := blk[k]
			x1 := blk[k+1] - col0[k+1]*x0
			blk[k+1] = x1
			if x0 == 0 && x1 == 0 {
				continue // a sparse right-hand side skips the sweep
			}
			for i := k + 2; i < w; i++ {
				blk[i] -= col0[i]*x0 + col1[i]*x1
			}
		}
		if nb == 0 {
			continue
		}
		g := g[:nb]
		cb := base + w // below block of panel column 0
		// The leading pass stores into g and takes the w mod 4 columns, or
		// four when w is a multiple of 4; every later pass adds four.
		var k int
		switch w & 3 {
		case 1:
			x0 := blk[0]
			col0 := sp[cb:][:nb]
			for i := range g {
				g[i] = col0[i] * x0
			}
			k = 1
		case 2:
			x0, x1 := blk[0], blk[1]
			col0 := sp[cb:][:nb]
			col1 := sp[cb+ns:][:nb]
			for i := range g {
				g[i] = col0[i]*x0 + col1[i]*x1
			}
			k = 2
		case 3:
			x0, x1, x2 := blk[0], blk[1], blk[2]
			col0 := sp[cb:][:nb]
			col1 := sp[cb+ns:][:nb]
			col2 := sp[cb+2*ns:][:nb]
			for i := range g {
				g[i] = (col0[i]*x0 + col1[i]*x1) + col2[i]*x2
			}
			k = 3
		default:
			x0, x1, x2, x3 := blk[0], blk[1], blk[2], blk[3]
			col0 := sp[cb:][:nb]
			col1 := sp[cb+ns:][:nb]
			col2 := sp[cb+2*ns:][:nb]
			col3 := sp[cb+3*ns:][:nb]
			for i := range g {
				g[i] = (col0[i]*x0 + col1[i]*x1) + (col2[i]*x2 + col3[i]*x3)
			}
			k = 4
		}
		for ; k < w; k += 4 {
			x0, x1, x2, x3 := blk[k], blk[k+1], blk[k+2], blk[k+3]
			cb := cb + k*ns
			col0 := sp[cb:][:nb]
			col1 := sp[cb+ns:][:nb]
			col2 := sp[cb+2*ns:][:nb]
			col3 := sp[cb+3*ns:][:nb]
			for i := range g {
				g[i] += (col0[i]*x0 + col1[i]*x1) + (col2[i]*x2 + col3[i]*x3)
			}
		}
		br := sn.rows[rb+w : rb+ns]
		for i, r := range br {
			work[r] -= g[i]
		}
	}
}

// bwdOneSN finalizes one supernode of the backward solve Lᵀ·x = work: gather
// the already-final ancestor rows once, take every column's dot down its
// panel against them, then substitute through the diagonal block. As in
// fwdSN no dot is a single accumulator chain: the below-block dots run four
// columns per pass over the gathered g (the w mod 4 leading columns first),
// the diagonal block resolves two unknowns per pass from one fused sweep
// over the rows below them, and a singleton panel's dot keeps two partial
// sums.
func (f *LDLT) bwdOneSN(t int, work, g []float64) {
	sn := f.sym.sn
	sp := f.snValues
	c0 := int(sn.ptr[t])
	w := int(sn.ptr[t+1]) - c0
	rb := sn.rowPtr[t]
	ns := sn.rowPtr[t+1] - rb
	base := sn.valPtr[t]
	nb := ns - w
	if w == 1 {
		// Singleton panel: one sparse dot straight off the solution vector,
		// even and odd entries summed apart.
		col := sp[base+1 : base+ns]
		rows := sn.rows[rb+1 : rb+ns]
		s0, s1 := 0.0, 0.0
		i := 0
		for ; i+1 < len(rows); i += 2 {
			s0 += col[i] * work[rows[i]]
			s1 += col[i+1] * work[rows[i+1]]
		}
		if i < len(rows) {
			s0 += col[i] * work[rows[i]]
		}
		work[c0] -= s0 + s1
		return
	}
	blk := work[c0:][:w]
	if nb > 0 {
		g = g[:nb]
		cb := base + w // below block of panel column 0
		br := sn.rows[rb+w : rb+ns]
		for i, r := range br {
			g[i] = work[r]
		}
		// Below-block dots first: they read only final ancestor values, so
		// every column takes its dot independently.
		var k int
		switch r := w & 3; r {
		case 1:
			col0 := sp[cb:][:nb]
			s0 := 0.0
			for i, gi := range g {
				s0 += col0[i] * gi
			}
			blk[0] -= s0
			k = 1
		case 2:
			col0 := sp[cb:][:nb]
			col1 := sp[cb+ns:][:nb]
			s0, s1 := 0.0, 0.0
			for i, gi := range g {
				s0 += col0[i] * gi
				s1 += col1[i] * gi
			}
			blk[0] -= s0
			blk[1] -= s1
			k = 2
		case 3:
			col0 := sp[cb:][:nb]
			col1 := sp[cb+ns:][:nb]
			col2 := sp[cb+2*ns:][:nb]
			s0, s1, s2 := 0.0, 0.0, 0.0
			for i, gi := range g {
				s0 += col0[i] * gi
				s1 += col1[i] * gi
				s2 += col2[i] * gi
			}
			blk[0] -= s0
			blk[1] -= s1
			blk[2] -= s2
			k = 3
		}
		for ; k < w; k += 4 {
			cb := cb + k*ns
			col0 := sp[cb:][:nb]
			col1 := sp[cb+ns:][:nb]
			col2 := sp[cb+2*ns:][:nb]
			col3 := sp[cb+3*ns:][:nb]
			s0, s1, s2, s3 := 0.0, 0.0, 0.0, 0.0
			for i, gi := range g {
				s0 += col0[i] * gi
				s1 += col1[i] * gi
				s2 += col2[i] * gi
				s3 += col3[i] * gi
			}
			blk[k] -= s0
			blk[k+1] -= s1
			blk[k+2] -= s2
			blk[k+3] -= s3
		}
	}
	// Descending substitution through the diagonal block over the (already
	// below-adjusted) right-hand sides, two columns per pass: one sweep over
	// the final unknowns below the pair takes both dots, x1 is resolved,
	// then x0 from it. An odd last column has no unknowns below it.
	for k := w - 1 - w&1; k > 0; k -= 2 {
		col0 := sp[base+(k-1)*ns:][:w]
		col1 := sp[base+k*ns:][:w]
		s0, s1 := 0.0, 0.0
		for i := k + 1; i < w; i++ {
			xi := blk[i]
			s0 += col0[i] * xi
			s1 += col1[i] * xi
		}
		x1 := blk[k] - s1
		blk[k] = x1
		blk[k-1] -= s0 + col0[k]*x1
	}
}
