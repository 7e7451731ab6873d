// Package fault implements the fault-tolerance mechanisms the paper's
// challenge 8(3) discusses for disaggregated memory: k-way replication, and
// Carbink-style Reed–Solomon striping into spans, each freed with its last
// object — both built from scratch on the one-sided verbs of internal/cluster.
//
// This file is the finite-field arithmetic underneath Reed–Solomon:
// GF(2^8) with the AES polynomial x^8+x^4+x^3+x+1 (0x11d generator
// convention), using exp/log tables for O(1) multiply and divide.
package fault

// gfPoly is the primitive polynomial 0x11d (x^8+x^4+x^3+x^2+1), the
// conventional choice for storage Reed–Solomon codes.
const gfPoly = 0x11d

var (
	gfExp [512]byte // gfExp[i] = g^i, doubled so mul can skip a mod
	gfLog [256]byte // gfLog[x] = i with g^i = x, undefined for 0
)

func init() {
	x := 1
	for i := 0; i < 255; i++ {
		gfExp[i] = byte(x)
		gfLog[x] = byte(i)
		x <<= 1
		if x&0x100 != 0 {
			x ^= gfPoly
		}
	}
	for i := 255; i < 512; i++ {
		gfExp[i] = gfExp[i-255]
	}
}

// gfMul multiplies in GF(2^8).
func gfMul(a, b byte) byte {
	if a == 0 || b == 0 {
		return 0
	}
	return gfExp[int(gfLog[a])+int(gfLog[b])]
}

// gfDiv divides a by b in GF(2^8); b must be non-zero.
func gfDiv(a, b byte) byte {
	if b == 0 {
		panic("fault: division by zero in GF(256)")
	}
	if a == 0 {
		return 0
	}
	return gfExp[int(gfLog[a])+255-int(gfLog[b])]
}

// gfInv returns the multiplicative inverse; x must be non-zero.
func gfInv(x byte) byte {
	if x == 0 {
		panic("fault: inverse of zero in GF(256)")
	}
	return gfExp[255-int(gfLog[x])]
}

// gfExpPow returns g^n for n ≥ 0.
func gfExpPow(n int) byte {
	return gfExp[n%255]
}

// mulSlice computes dst[i] ^= c * src[i] for all i — the inner loop of
// encode and decode (accumulating matrix-vector products).
func mulSlice(c byte, src, dst []byte) {
	if c == 0 {
		return
	}
	if c == 1 {
		for i, s := range src {
			dst[i] ^= s
		}
		return
	}
	logC := int(gfLog[c])
	for i, s := range src {
		if s != 0 {
			dst[i] ^= gfExp[logC+int(gfLog[s])]
		}
	}
}

// matrix is a dense GF(256) matrix in row-major order.
type matrix struct {
	rows, cols int
	data       []byte
}

func newMatrix(rows, cols int) matrix {
	return matrix{rows: rows, cols: cols, data: make([]byte, rows*cols)}
}

func (m matrix) at(r, c int) byte     { return m.data[r*m.cols+c] }
func (m matrix) set(r, c int, v byte) { m.data[r*m.cols+c] = v }
func (m matrix) row(r int) []byte     { return m.data[r*m.cols : (r+1)*m.cols] }
func (m matrix) swapRows(a, b int) {
	ra, rb := m.row(a), m.row(b)
	for i := range ra {
		ra[i], rb[i] = rb[i], ra[i]
	}
}

// mul returns m × other.
func (m matrix) mul(other matrix) matrix {
	if m.cols != other.rows {
		panic("fault: matrix dimension mismatch")
	}
	out := newMatrix(m.rows, other.cols)
	for r := 0; r < m.rows; r++ {
		for k := 0; k < m.cols; k++ {
			a := m.at(r, k)
			if a == 0 {
				continue
			}
			mulSlice(a, other.row(k), out.row(r))
		}
	}
	return out
}

// invert returns the inverse via Gauss–Jordan elimination, or ok=false if
// the matrix is singular.
func (m matrix) invert() (matrix, bool) {
	if m.rows != m.cols {
		return matrix{}, false
	}
	n := m.rows
	// Augment [m | I].
	aug := newMatrix(n, 2*n)
	for r := 0; r < n; r++ {
		copy(aug.row(r)[:n], m.row(r))
		aug.set(r, n+r, 1)
	}
	for col := 0; col < n; col++ {
		// Find a pivot.
		pivot := -1
		for r := col; r < n; r++ {
			if aug.at(r, col) != 0 {
				pivot = r
				break
			}
		}
		if pivot < 0 {
			return matrix{}, false
		}
		if pivot != col {
			aug.swapRows(pivot, col)
		}
		// Normalize the pivot row.
		inv := gfInv(aug.at(col, col))
		prow := aug.row(col)
		for i := range prow {
			prow[i] = gfMul(prow[i], inv)
		}
		// Eliminate the column elsewhere.
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			f := aug.at(r, col)
			if f == 0 {
				continue
			}
			rrow := aug.row(r)
			for i := range rrow {
				rrow[i] ^= gfMul(f, prow[i])
			}
		}
	}
	out := newMatrix(n, n)
	for r := 0; r < n; r++ {
		copy(out.row(r), aug.row(r)[n:])
	}
	return out, true
}

// identity returns the n×n identity matrix.
func identity(n int) matrix {
	m := newMatrix(n, n)
	for i := 0; i < n; i++ {
		m.set(i, i, 1)
	}
	return m
}

// vandermonde builds the rows×cols matrix with entry (r,c) = g^(r·c); any
// square submatrix of distinct rows is invertible, the property RS relies on.
func vandermonde(rows, cols int) matrix {
	m := newMatrix(rows, cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			m.set(r, c, gfExpPow(r*c))
		}
	}
	return m
}
