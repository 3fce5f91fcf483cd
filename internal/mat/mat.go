// Package mat provides dense row-major float64 matrices and the serial
// matrix-multiplication kernels used by every parallel algorithm in this
// repository. It is the stand-in for the vendor BLAS dgemm the paper links
// against (-lsci, -lessl, -lscs, -lmkl): a blocked, cache-aware kernel with
// all four transpose variants, plus pack/unpack helpers for moving matrix
// blocks into contiguous communication buffers.
package mat

import (
	"errors"
	"fmt"
)

// Matrix is a dense row-major matrix view. Data holds at least
// (Rows-1)*Stride + Cols elements; element (i,j) lives at Data[i*Stride+j].
// A Matrix may be a view into a larger matrix (Stride > Cols), which is how
// the parallel algorithms address sub-blocks of fetched buffers without
// copying.
type Matrix struct {
	Rows, Cols int
	Stride     int
	Data       []float64
}

// New returns a zero-initialized r x c matrix with a tight stride.
func New(r, c int) *Matrix {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("mat: negative dimensions %dx%d", r, c))
	}
	return &Matrix{Rows: r, Cols: c, Stride: c, Data: make([]float64, r*c)}
}

// FromData wraps an existing slice as an r x c matrix with a tight stride.
// The slice must have at least r*c elements.
func FromData(r, c int, data []float64) *Matrix {
	if len(data) < r*c {
		panic(fmt.Sprintf("mat: FromData needs %d elements, got %d", r*c, len(data)))
	}
	return &Matrix{Rows: r, Cols: c, Stride: c, Data: data[:r*c]}
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 {
	if i < 0 || i >= m.Rows || j < 0 || j >= m.Cols {
		panic(fmt.Sprintf("mat: At(%d,%d) out of range %dx%d", i, j, m.Rows, m.Cols))
	}
	return m.Data[i*m.Stride+j]
}

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) {
	if i < 0 || i >= m.Rows || j < 0 || j >= m.Cols {
		panic(fmt.Sprintf("mat: Set(%d,%d) out of range %dx%d", i, j, m.Rows, m.Cols))
	}
	m.Data[i*m.Stride+j] = v
}

// View returns a sub-matrix view of r x c elements starting at (i, j).
// The view shares storage with m.
func (m *Matrix) View(i, j, r, c int) *Matrix {
	if i < 0 || j < 0 || r < 0 || c < 0 || i+r > m.Rows || j+c > m.Cols {
		panic(fmt.Sprintf("mat: View(%d,%d,%d,%d) out of range %dx%d", i, j, r, c, m.Rows, m.Cols))
	}
	if r == 0 || c == 0 {
		// No elements: an origin on the matrix's edge may lie past its data.
		return &Matrix{Rows: r, Cols: c, Stride: m.Stride}
	}
	off := i*m.Stride + j
	return &Matrix{Rows: r, Cols: c, Stride: m.Stride, Data: m.Data[off : off+(r-1)*m.Stride+c]}
}

// Clone returns a deep copy of m with a tight stride.
func (m *Matrix) Clone() *Matrix {
	out := New(m.Rows, m.Cols)
	for i := 0; i < m.Rows; i++ {
		copy(out.Data[i*out.Stride:i*out.Stride+m.Cols], m.Data[i*m.Stride:i*m.Stride+m.Cols])
	}
	return out
}

// Zero sets every element of m (respecting views) to zero.
func (m *Matrix) Zero() {
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Stride : i*m.Stride+m.Cols]
		for j := range row {
			row[j] = 0
		}
	}
}

// Fill sets every element of m to v.
func (m *Matrix) Fill(v float64) {
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Stride : i*m.Stride+m.Cols]
		for j := range row {
			row[j] = v
		}
	}
}

// Transpose returns a new tightly-strided matrix holding mᵀ.
func (m *Matrix) Transpose() *Matrix {
	out := New(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			out.Data[j*out.Stride+i] = m.Data[i*m.Stride+j]
		}
	}
	return out
}

// Equal reports whether a and b have the same shape and identical elements.
func Equal(a, b *Matrix) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < a.Cols; j++ {
			if a.Data[i*a.Stride+j] != b.Data[i*b.Stride+j] {
				return false
			}
		}
	}
	return true
}

// MaxAbsDiff returns the largest |a(i,j)-b(i,j)|. It panics when the shapes
// differ, because that always indicates a harness bug rather than a
// numerical issue.
func MaxAbsDiff(a, b *Matrix) float64 {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic(fmt.Sprintf("mat: MaxAbsDiff shape mismatch %dx%d vs %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	var max float64
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < a.Cols; j++ {
			d := a.Data[i*a.Stride+j] - b.Data[i*b.Stride+j]
			if d < 0 {
				d = -d
			}
			if d > max {
				max = d
			}
		}
	}
	return max
}

// ErrShape is returned by Gemm when operand dimensions are inconsistent.
var ErrShape = errors.New("mat: inconsistent matrix shapes")

// PackInto copies the r x c block of src starting at (i, j) into dst as a
// tightly-strided row-major block and returns the number of elements packed.
// This is the copy every communication buffer fill goes through, so it is
// kept allocation-free.
func PackInto(dst []float64, src *Matrix, i, j, r, c int) int {
	if i < 0 || j < 0 || i+r > src.Rows || j+c > src.Cols {
		panic(fmt.Sprintf("mat: PackInto(%d,%d,%d,%d) out of range %dx%d", i, j, r, c, src.Rows, src.Cols))
	}
	if len(dst) < r*c {
		panic(fmt.Sprintf("mat: PackInto dst too small: %d < %d", len(dst), r*c))
	}
	for row := 0; row < r; row++ {
		copy(dst[row*c:(row+1)*c], src.Data[(i+row)*src.Stride+j:(i+row)*src.Stride+j+c])
	}
	return r * c
}

// UnpackTransposeFrom scatters a tightly-strided c x r row-major block from
// src into dst at position (i, j) transposed: dst(i+a, j+b) = src[b*r + a].
func UnpackTransposeFrom(dst *Matrix, src []float64, i, j, r, c int) {
	if i < 0 || j < 0 || i+r > dst.Rows || j+c > dst.Cols {
		panic(fmt.Sprintf("mat: UnpackTransposeFrom(%d,%d,%d,%d) out of range %dx%d", i, j, r, c, dst.Rows, dst.Cols))
	}
	if len(src) < r*c {
		panic(fmt.Sprintf("mat: UnpackTransposeFrom src too small: %d < %d", len(src), r*c))
	}
	for a := 0; a < r; a++ {
		row := dst.Data[(i+a)*dst.Stride+j : (i+a)*dst.Stride+j+c]
		for b := 0; b < c; b++ {
			row[b] = src[b*r+a]
		}
	}
}

// UnpackFrom copies a tightly-strided r x c row-major block from src into
// dst at position (i, j). It is the inverse of PackInto.
func UnpackFrom(dst *Matrix, src []float64, i, j, r, c int) {
	if i < 0 || j < 0 || i+r > dst.Rows || j+c > dst.Cols {
		panic(fmt.Sprintf("mat: UnpackFrom(%d,%d,%d,%d) out of range %dx%d", i, j, r, c, dst.Rows, dst.Cols))
	}
	if len(src) < r*c {
		panic(fmt.Sprintf("mat: UnpackFrom src too small: %d < %d", len(src), r*c))
	}
	for row := 0; row < r; row++ {
		copy(dst.Data[(i+row)*dst.Stride+j:(i+row)*dst.Stride+j+c], src[row*c:(row+1)*c])
	}
}
