package solver

import (
	"fmt"
	"math"

	"dyngraph/internal/obs"
	"dyngraph/internal/sparse"
)

// Blocked multi-RHS PCG. The commute-time embedding solves k systems
// in the same Laplacian; running k independent PCG recurrences in
// lockstep lets every matrix traversal (the SpMM), preconditioner
// application and projection serve all k right-hand sides at once, so
// the CSR arrays stream through the cache hierarchy once per block
// iteration instead of once per column per iteration. The recurrences
// stay mathematically — and, by construction of the sparse block
// kernels, bit-for-bit — identical to k sequential single-vector solves:
// each column carries its own alpha/beta/residual, converges on its
// own schedule, and is deactivated (masked out of every kernel) the
// moment it reaches tolerance, so stragglers don't pay for finished
// columns.

// blockScratch holds the reusable n×k iteration state of SolveBlock,
// sized lazily for the largest k seen on this solver.
type blockScratch struct {
	k          int
	r, z, p, q []float64 // n×k residual / precond / search / L·p blocks
	s1         []float64 // n×k tree-solve scratch (tree precond only)
	csum       []float64 // ncomp×k projection sums
	tsum       []float64 // forest-comp×k tree means (tree precond only)
	colv       []float64 // 6 per-column scalar lanes (see solveBlock)
	cols       []int     // packed active-column list
}

// blockScratchFor returns s.blk sized for width k, allocating or
// growing it on first use.
func (s *Laplacian) blockScratchFor(k int) *blockScratch {
	if s.blk != nil && s.blk.k >= k {
		return s.blk
	}
	bs := &blockScratch{
		k:    k,
		r:    make([]float64, s.n*k),
		z:    make([]float64, s.n*k),
		p:    make([]float64, s.n*k),
		q:    make([]float64, s.n*k),
		csum: make([]float64, len(s.size)*k),
		colv: make([]float64, 6*k),
		cols: make([]int, 0, k),
	}
	if s.tree != nil {
		bs.s1 = make([]float64, s.n*k)
		bs.tsum = make([]float64, len(s.tree.compSize)*k)
	}
	s.blk = bs
	return bs
}

// adoptBlockScratch transfers prev's blocked-solve iteration state to
// s — an ownership handoff for the streaming reuse paths, where the
// previous snapshot's solver runs no further blocked solves and the
// n×k scratch is the dominant per-push allocation. Every scratch array
// is (re)initialized by solveBlock before it is read, so stale
// contents are harmless. prev stays valid and simply re-allocates
// lazily if it does solve again.
func (s *Laplacian) adoptBlockScratch(prev *Laplacian) {
	bs := prev.blk
	if bs == nil || s.n != prev.n {
		return
	}
	if (s.tree != nil) != (bs.s1 != nil) {
		return
	}
	if len(bs.csum) != len(s.size)*bs.k {
		return
	}
	if s.tree != nil && len(bs.tsum) != len(s.tree.compSize)*bs.k {
		return
	}
	prev.blk = nil
	s.blk = bs
}

// SolveBlock solves the k systems L·X[:,c] = B[:,c] simultaneously,
// where x and b are row-major n×k blocks (entry (i, c) at x[i*k+c] —
// the commute embedding's storage layout). The minimum-norm solution
// of every column is written into x (incoming contents ignored) and
// per-column Stats are returned. workers > 1 shards the SpMM rows
// across that many goroutines; the result is identical for any value.
//
// Column c of the result is bit-identical to Solve on column c alone.
// If any column fails to converge the other columns are still solved
// and the error wraps ErrNoConvergence; per-column residuals identify
// the stragglers. SolveBlock is SolveBlockWith cold, at the configured
// tolerance and without a span.
func (s *Laplacian) SolveBlock(x, b []float64, k, workers int) ([]Stats, error) {
	return s.SolveBlockWith(x, b, k, workers, false, 0, nil)
}

// SolveBlockWith is the general block solve. warm makes x's incoming
// columns the initial guesses (e.g. the previous snapshot's solution
// block); a column whose guess is already within tolerance is returned
// bit-for-bit unchanged with zero iterations. tol > 0 overrides the
// solver's tolerance for this call only: the incremental embedding
// path polishes its verification solves below the serving tolerance,
// and the headroom is what its residual certificate spends to skip
// later verifications. parent scopes a "pcg" span carrying the mode
// and the iteration counts (nil disables it).
//
// The call's mean per-column iteration count is recorded as the
// history the pin's drift check reads (see NewLaplacianFrom).
func (s *Laplacian) SolveBlockWith(x, b []float64, k, workers int, warm bool, tol float64, parent *obs.Span) ([]Stats, error) {
	sp := parent.StartChild(SolveSpanName)
	stats, err := s.pcgBlock(x, b, k, workers, warm, tol, 0)
	if len(stats) > 0 {
		total := 0
		for _, st := range stats {
			total += st.Iterations
		}
		s.lastIters = float64(total) / float64(len(stats))
	}
	annotateSolve(sp, stats, k, warm, err)
	sp.End()
	return stats, err
}

// pcgBlock is the blocked PCG loop, run to tolerance tol or maxIter
// iterations (≤ 0: the configured values, see limits). Every kernel
// call performs, per column, the same floating-point operations in the
// same order as the single-RHS loop in solve — the bit-equality
// contract the equivalence tests in block_test.go pin down.
func (s *Laplacian) pcgBlock(x, b []float64, k, workers int, warm bool, tol float64, maxIter int) ([]Stats, error) {
	if k <= 0 {
		return nil, fmt.Errorf("solver: SolveBlock non-positive block width %d", k)
	}
	if len(b) != s.n*k || len(x) != s.n*k {
		return nil, fmt.Errorf("solver: SolveBlock dimension mismatch: len(x)=%d, len(b)=%d, n*k=%d", len(x), len(b), s.n*k)
	}
	bs := s.blockScratchFor(k)
	kk := bs.k // scratch stride may exceed k; per-column lanes use kk
	normB := bs.colv[0*kk : 0*kk+k]
	rz := bs.colv[1*kk : 1*kk+k]
	pq := bs.colv[2*kk : 2*kk+k]
	alpha := bs.colv[3*kk : 3*kk+k]
	beta := bs.colv[4*kk : 4*kk+k]
	res := bs.colv[5*kk : 5*kk+k]
	stats := make([]Stats, k)
	tol, maxIter = s.limits(tol, maxIter)

	// Block scratch is allocated with stride bs.k; when k < bs.k the
	// kernels must still use stride k, so re-slice flat prefixes.
	nk := s.n * k
	r, z, p, q := bs.r[:nk], bs.z[:nk], bs.p[:nk], bs.q[:nk]

	copy(r, b)
	active := bs.cols[:0]
	for c := 0; c < k; c++ {
		active = append(active, c)
	}
	s.projectBlock(r, k, active, bs)
	sparse.ColNorms2(normB, r, k, active)
	for _, c := range active {
		stats[c].NormB = normB[c]
	}
	still := active[:0]
	for _, c := range active {
		if normB[c] == 0 {
			// The minimum-norm solution of L x = 0, warm or cold.
			zeroCol(x, k, c)
			continue
		}
		still = append(still, c)
	}
	active = still

	if warm {
		// r = P b − L x0 per column, then the converged-guess early
		// exit: a column already within tolerance is left bit-for-bit
		// untouched, exactly like solve's.
		if len(active) > 0 {
			s.spmm(q, x, k, activeOrNil(active, k), workers)
			for _, c := range active {
				alpha[c] = -1
			}
			sparse.AxpyCols(alpha, q, r, k, active)
			s.projectBlock(r, k, active, bs)
			sparse.ColNorms2(res, r, k, active)
			still = active[:0]
			for _, c := range active {
				if rr := res[c] / normB[c]; rr <= tol {
					stats[c].Residual = rr
					continue
				}
				still = append(still, c)
			}
			active = still
			// Center the surviving guesses so every iterate is the
			// minimum-norm representative.
			s.projectBlock(x, k, active, bs)
		}
	} else {
		sparse.ZeroCols(x, k, activeOrNil(active, k))
	}

	if len(active) == 0 {
		return stats, nil
	}

	s.applyPrecondBlock(z, r, k, active, bs)
	s.projectBlock(z, k, active, bs)
	sparse.CopyCols(p, z, k, active)
	sparse.DotCols(rz, r, z, k, active)

	// The iteration loop fuses the elementwise kernels into a few
	// streaming passes over the n×k blocks (update+projection-sums,
	// mean-subtract+norms, precondition+sums, mean-subtract+inner
	// product): the blocks exceed cache at serving sizes, so pass
	// count — not flop count — is what the fusion buys. Elementwise
	// fusion never reorders any single column's operations, so the
	// bit-for-bit match with the single-RHS loop survives.
	failed := 0
	for it := 1; it <= maxIter && len(active) > 0; it++ {
		s.spmm(q, p, k, activeOrNil(active, k), workers)
		sparse.DotCols(pq, p, q, k, active)
		still = active[:0]
		for _, c := range active {
			if pq[c] <= 0 || math.IsNaN(pq[c]) {
				// Numerical breakdown on this column: direction fell
				// into the null space. Like solve, keep the best
				// iterate without a final projection.
				stats[c].Residual = colNorm(r, k, c) / normB[c]
				failed++
				continue
			}
			alpha[c] = rz[c] / pq[c]
			beta[c] = -alpha[c] // lane doubles as −alpha for the r update
			still = append(still, c)
		}
		active = still
		if len(active) == 0 {
			break
		}
		// Pass 1: x += alpha⊙p, r −= alpha⊙q, and accumulate the
		// updated residual's per-component column sums (the first half
		// of the null-space-drift projection). Each n-loop has an
		// unmasked fast path for the common all-columns-active case:
		// same per-column operations, no index indirection.
		full := len(active) == k
		sums := bs.csum
		for comp := range s.size {
			sr := sums[comp*k : comp*k+k]
			for _, c := range active {
				sr[c] = 0
			}
		}
		for v, comp := range s.comp {
			base := v * k
			pr := p[base : base+k]
			qr := q[base : base+k]
			xr := x[base : base+k]
			rr := r[base : base+k]
			sr := sums[comp*k : comp*k+k]
			if full {
				for c := range xr {
					xr[c] += alpha[c] * pr[c]
					rr[c] += beta[c] * qr[c]
					sr[c] += rr[c]
				}
			} else {
				for _, c := range active {
					xr[c] += alpha[c] * pr[c]
					rr[c] += beta[c] * qr[c]
					sr[c] += rr[c]
				}
			}
		}
		for comp, size := range s.size {
			sr := sums[comp*k : comp*k+k]
			for _, c := range active {
				sr[c] /= float64(size)
			}
		}
		// Pass 2: subtract the component means and accumulate the new
		// squared residual norms.
		for _, c := range active {
			res[c] = 0
		}
		for v, comp := range s.comp {
			rr := r[v*k : v*k+k]
			sr := sums[comp*k : comp*k+k]
			if full {
				for c := range rr {
					rr[c] -= sr[c]
					res[c] += rr[c] * rr[c]
				}
			} else {
				for _, c := range active {
					rr[c] -= sr[c]
					res[c] += rr[c] * rr[c]
				}
			}
		}
		still = active[:0]
		for _, c := range active {
			stats[c].Iterations = it
			rr := math.Sqrt(res[c]) / normB[c]
			stats[c].Residual = rr
			if rr <= tol {
				s.projectCol(x, k, c) // minimum-norm representative
				continue
			}
			still = append(still, c)
		}
		active = still
		if len(active) == 0 {
			break
		}
		// Pass 3: z = M⁻¹ r with the projection sums accumulated in
		// the same sweep where the preconditioner is elementwise
		// (Jacobi / none); the tree solve keeps its own traversal.
		full = len(active) == k // convergence may have shrunk the mask
		for comp := range s.size {
			sr := sums[comp*k : comp*k+k]
			for _, c := range active {
				sr[c] = 0
			}
		}
		switch s.precond {
		case PrecondJacobi:
			for v, comp := range s.comp {
				d := s.invDiag[v]
				rr := r[v*k : v*k+k]
				zr := z[v*k : v*k+k]
				sr := sums[comp*k : comp*k+k]
				if full {
					for c := range zr {
						zr[c] = rr[c] * d
						sr[c] += zr[c]
					}
				} else {
					for _, c := range active {
						zr[c] = rr[c] * d
						sr[c] += zr[c]
					}
				}
			}
		case PrecondNone:
			for v, comp := range s.comp {
				rr := r[v*k : v*k+k]
				zr := z[v*k : v*k+k]
				sr := sums[comp*k : comp*k+k]
				if full {
					for c := range zr {
						zr[c] = rr[c]
						sr[c] += zr[c]
					}
				} else {
					for _, c := range active {
						zr[c] = rr[c]
						sr[c] += zr[c]
					}
				}
			}
		default: // PrecondTree
			s.applyPrecondBlock(z, r, k, active, bs)
			for v, comp := range s.comp {
				zr := z[v*k : v*k+k]
				sr := sums[comp*k : comp*k+k]
				if full {
					for c := range zr {
						sr[c] += zr[c]
					}
				} else {
					for _, c := range active {
						sr[c] += zr[c]
					}
				}
			}
		}
		for comp, size := range s.size {
			sr := sums[comp*k : comp*k+k]
			for _, c := range active {
				sr[c] /= float64(size)
			}
		}
		// Pass 4: subtract z's component means and accumulate the new
		// r·z inner products.
		for _, c := range active {
			res[c] = 0 // res doubles as rzNew
		}
		for v, comp := range s.comp {
			rr := r[v*k : v*k+k]
			zr := z[v*k : v*k+k]
			sr := sums[comp*k : comp*k+k]
			if full {
				for c := range zr {
					zr[c] -= sr[c]
					res[c] += rr[c] * zr[c]
				}
			} else {
				for _, c := range active {
					zr[c] -= sr[c]
					res[c] += rr[c] * zr[c]
				}
			}
		}
		for _, c := range active {
			beta[c] = res[c] / rz[c]
			rz[c] = res[c]
		}
		// Pass 5: p = z + beta⊙p.
		for i := 0; i < s.n; i++ {
			zr := z[i*k : i*k+k]
			pr := p[i*k : i*k+k]
			if full {
				for c := range pr {
					pr[c] = zr[c] + beta[c]*pr[c]
				}
			} else {
				for _, c := range active {
					pr[c] = zr[c] + beta[c]*pr[c]
				}
			}
		}
	}
	// maxIter exhausted: like solve, project the best iterates.
	for _, c := range active {
		s.projectCol(x, k, c)
		failed++
	}
	if failed > 0 {
		return stats, fmt.Errorf("solver: SolveBlock: %d of %d columns: %w", failed, k, ErrNoConvergence)
	}
	return stats, nil
}

// spmm computes dst = L·x for the active columns, sharding rows across
// workers goroutines when asked. cols nil means all columns (the
// unmasked kernel is slightly faster, so callers pass nil when every
// column is active).
func (s *Laplacian) spmm(dst, x []float64, k int, cols []int, workers int) {
	if workers > 1 {
		s.l.MulBlockParallel(dst, x, k, cols, workers)
		return
	}
	s.l.MulBlockCols(dst, x, k, cols)
}

// activeOrNil collapses a full-width active list to nil so kernels can
// take their unmasked fast path; the masked and unmasked kernels are
// bit-identical on the columns they share.
func activeOrNil(active []int, k int) []int {
	if len(active) == k {
		return nil
	}
	return active
}

// projectBlock removes each component's mean from the listed columns
// of the n×k block x, bit-identical per column to project.
func (s *Laplacian) projectBlock(x []float64, k int, cols []int, bs *blockScratch) {
	if len(cols) == 0 {
		return
	}
	sums := bs.csum
	for comp := range s.size {
		sr := sums[comp*k : comp*k+k]
		for _, c := range cols {
			sr[c] = 0
		}
	}
	for v, comp := range s.comp {
		sr := sums[comp*k : comp*k+k]
		xr := x[v*k : v*k+k]
		for _, c := range cols {
			sr[c] += xr[c]
		}
	}
	for comp, size := range s.size {
		sr := sums[comp*k : comp*k+k]
		for _, c := range cols {
			sr[c] /= float64(size)
		}
	}
	for v, comp := range s.comp {
		sr := sums[comp*k : comp*k+k]
		xr := x[v*k : v*k+k]
		for _, c := range cols {
			xr[c] -= sr[c]
		}
	}
}

// projectCol is project for a single column of an n×k block, using the
// single-RHS csum scratch.
func (s *Laplacian) projectCol(x []float64, k, c int) {
	sums := s.csum
	for comp := range sums {
		sums[comp] = 0
	}
	for v, comp := range s.comp {
		sums[comp] += x[v*k+c]
	}
	for comp := range sums {
		sums[comp] /= float64(s.size[comp])
	}
	for v, comp := range s.comp {
		x[v*k+c] -= sums[comp]
	}
}

// ProjectBlock removes each component's mean from every column of the
// row-major n×k block x — the minimum-norm normalization for this
// solver's component structure. Exposed for callers recycling solution
// blocks across snapshots whose component structure changed: a guess
// centered for the old labelling must be re-centered before the
// converged-guess early exit may return it as-is (think bridge
// deletions, where the old block solves the new system exactly up to
// per-component constants).
func (s *Laplacian) ProjectBlock(x []float64, k int) {
	for c := 0; c < k; c++ {
		s.projectCol(x, k, c)
	}
}

// applyPrecondBlock computes Z[:,c] = M⁻¹ R[:,c] for the listed
// columns.
func (s *Laplacian) applyPrecondBlock(z, r []float64, k int, cols []int, bs *blockScratch) {
	switch s.precond {
	case PrecondTree:
		s.tree.solveBlock(z, r, bs.s1[:s.n*k], bs.tsum, k, activeOrNil(cols, k))
	case PrecondJacobi:
		for i, d := range s.invDiag {
			zr := z[i*k : i*k+k]
			rr := r[i*k : i*k+k]
			for _, c := range cols {
				zr[c] = rr[c] * d
			}
		}
	default:
		sparse.CopyCols(z, r, k, cols)
	}
}

// colNorm returns ‖x[:,c]‖₂ with Norm2's accumulation order.
func colNorm(x []float64, k, c int) float64 {
	var s float64
	for i := 0; i*k < len(x); i++ {
		v := x[i*k+c]
		s += v * v
	}
	return math.Sqrt(s)
}

// zeroCol zeroes column c of the n×k block x.
func zeroCol(x []float64, k, c int) {
	for i := 0; i*k < len(x); i++ {
		x[i*k+c] = 0
	}
}
