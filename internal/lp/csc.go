package lp

import "sort"

// compiled is an immutable sparse snapshot of a Problem's constraint
// matrix in both compressed-sparse-column (CSC) and compressed-sparse-row
// (CSR) form. The revised simplex needs both orientations: FTRAN and
// pricing walk columns, while the dual ratio test scatters one row of
// B^{-1}A from the rows that a nonzero of rho touches.
//
// A compiled snapshot is never mutated after construction, so clones of a
// Problem (and the per-worker solver clones of the branch-and-bound
// layer) share one instance; only structural edits — AddVariable,
// AddConstraint, SetConstraint — invalidate it. Duplicate terms for the
// same variable within a row are accumulated.
type compiled struct {
	m, n int

	// CSC: column j's entries are rowIdx/colVal[colPtr[j]:colPtr[j+1]],
	// with row indices strictly increasing within a column.
	colPtr []int32
	rowIdx []int32
	colVal []float64

	// CSR: row i's entries are colIdx/rowVal[rowPtr[i]:rowPtr[i+1]],
	// with column indices strictly increasing within a row.
	rowPtr []int32
	colIdx []int32
	rowVal []float64
}

// Compile builds (or refreshes) the cached sparse form of the constraint
// matrix. Model builders call it once after assembly so that every solver
// shares the snapshot instead of re-scanning []Term rows. Problem.Solve
// compiles lazily when the cache is missing or stale; NewIncremental
// then builds a private snapshot instead, so that it never writes to p.
func (p *Problem) Compile() { p.compiled() }

func (p *Problem) compiled() *compiled {
	if p.comp != nil && p.compVersion == p.version {
		return p.comp
	}
	p.comp = buildCompiled(p)
	p.compVersion = p.version
	return p.comp
}

func buildCompiled(p *Problem) *compiled {
	n := len(p.names)
	m := len(p.rows)
	c := &compiled{m: m, n: n}

	// CSR first: accumulate duplicate terms per row, sort columns.
	acc := make([]float64, n)
	seen := make([]bool, n)
	var cols []int32
	c.rowPtr = make([]int32, m+1)
	for i, row := range p.rows {
		cols = cols[:0]
		for _, t := range row {
			j := int32(t.Var)
			if !seen[j] {
				seen[j] = true
				cols = append(cols, j)
			}
			acc[j] += t.Coef
		}
		sort.Slice(cols, func(a, b int) bool { return cols[a] < cols[b] })
		for _, j := range cols {
			if v := acc[j]; v != 0 {
				c.colIdx = append(c.colIdx, j)
				c.rowVal = append(c.rowVal, v)
			}
			acc[j] = 0
			seen[j] = false
		}
		c.rowPtr[i+1] = int32(len(c.colIdx))
	}

	// Transpose to CSC. Walking rows in order leaves each column's row
	// indices sorted.
	nnz := len(c.colIdx)
	c.colPtr = make([]int32, n+1)
	for _, j := range c.colIdx {
		c.colPtr[j+1]++
	}
	for j := 0; j < n; j++ {
		c.colPtr[j+1] += c.colPtr[j]
	}
	c.rowIdx = make([]int32, nnz)
	c.colVal = make([]float64, nnz)
	next := make([]int32, n)
	copy(next, c.colPtr[:n])
	for i := 0; i < m; i++ {
		for k := c.rowPtr[i]; k < c.rowPtr[i+1]; k++ {
			j := c.colIdx[k]
			at := next[j]
			c.rowIdx[at] = int32(i)
			c.colVal[at] = c.rowVal[k]
			next[j] = at + 1
		}
	}
	return c
}
