package fault

import (
	"errors"
	"fmt"
)

// This file implements a systematic Reed–Solomon erasure code RS(d+p, d):
// d data shards are extended with p parity shards; any d of the d+p shards
// reconstruct the original data. It is the codec Carbink [62] uses to make
// far memory fault tolerant at ~1.5× memory overhead instead of the ≥2× of
// replication.

// Errors returned by the codec.
var (
	ErrShardCount = errors.New("fault: invalid shard configuration")
	ErrShardSize  = errors.New("fault: shards must be non-empty and equal length")
	ErrTooFewOK   = errors.New("fault: too few shards to reconstruct")
)

// RS is a Reed–Solomon codec for a fixed (data, parity) geometry.
type RS struct {
	data   int
	parity int
	// enc is the (data+parity)×data encoding matrix; its top data rows are
	// the identity (systematic code), the bottom parity rows generate parity.
	enc matrix
}

// NewRS builds a codec with d data and p parity shards. d+p must fit in
// GF(256), i.e. ≤ 255.
func NewRS(d, p int) (*RS, error) {
	if d <= 0 || p <= 0 || d+p > 255 {
		return nil, fmt.Errorf("%w: data=%d parity=%d", ErrShardCount, d, p)
	}
	// Build a systematic matrix: take the (d+p)×d Vandermonde matrix and
	// normalize its top d×d block to the identity by multiplying with the
	// block's inverse. The result keeps the any-d-rows-invertible property.
	v := vandermonde(d+p, d)
	top := newMatrix(d, d)
	for r := 0; r < d; r++ {
		copy(top.row(r), v.row(r))
	}
	topInv, ok := top.invert()
	if !ok {
		return nil, fmt.Errorf("fault: vandermonde top block singular (d=%d p=%d)", d, p)
	}
	return &RS{data: d, parity: p, enc: v.mul(topInv)}, nil
}

// DataShards returns d.
func (r *RS) DataShards() int { return r.data }

// TotalShards returns d+p.
func (r *RS) TotalShards() int { return r.data + r.parity }

func (r *RS) checkShards(shards [][]byte, wantAll bool) (int, error) {
	if len(shards) != r.TotalShards() {
		return 0, fmt.Errorf("%w: got %d shards, want %d", ErrShardCount, len(shards), r.TotalShards())
	}
	size := -1
	for _, s := range shards {
		if s == nil {
			if wantAll {
				return 0, fmt.Errorf("%w: nil shard", ErrShardSize)
			}
			continue
		}
		if size < 0 {
			size = len(s)
		}
		if len(s) != size {
			return 0, fmt.Errorf("%w: mixed sizes %d and %d", ErrShardSize, size, len(s))
		}
	}
	if size <= 0 {
		return 0, fmt.Errorf("%w: no shard data", ErrShardSize)
	}
	return size, nil
}

// Encode fills shards[d:] with parity computed from shards[:d]. All d+p
// slices must be pre-allocated with equal lengths.
func (r *RS) Encode(shards [][]byte) error {
	size, err := r.checkShards(shards, true)
	if err != nil {
		return err
	}
	_ = size
	for pi := 0; pi < r.parity; pi++ {
		out := shards[r.data+pi]
		for i := range out {
			out[i] = 0
		}
		row := r.enc.row(r.data + pi)
		for di := 0; di < r.data; di++ {
			mulSlice(row[di], shards[di], out)
		}
	}
	return nil
}

// Reconstruct rebuilds every nil shard in place. At least d shards must be
// present. Present shards are never modified.
func (r *RS) Reconstruct(shards [][]byte) error {
	size, err := r.checkShards(shards, false)
	if err != nil {
		return err
	}
	present := make([]int, 0, r.TotalShards())
	var missing []int
	for i, s := range shards {
		if s != nil {
			present = append(present, i)
		} else {
			missing = append(missing, i)
		}
	}
	if len(missing) == 0 {
		return nil
	}
	if len(present) < r.data {
		return fmt.Errorf("%w: %d present, need %d", ErrTooFewOK, len(present), r.data)
	}
	present = present[:r.data]
	// Build the d×d submatrix of encoding rows for the chosen present
	// shards and invert it: data = inv × presentShards.
	sub := newMatrix(r.data, r.data)
	for ri, idx := range present {
		copy(sub.row(ri), r.enc.row(idx))
	}
	inv, ok := sub.invert()
	if !ok {
		return fmt.Errorf("fault: reconstruction matrix singular (present=%v)", present)
	}
	// Recover the data shards we lost.
	dataBufs := make([][]byte, r.data)
	for di := 0; di < r.data; di++ {
		if shards[di] != nil {
			dataBufs[di] = shards[di]
		}
	}
	for _, mi := range missing {
		if mi >= r.data {
			continue // parity handled below
		}
		out := make([]byte, size)
		row := inv.row(mi)
		for k, idx := range present {
			mulSlice(row[k], shards[idx], out)
		}
		shards[mi] = out
		dataBufs[mi] = out
	}
	// Recompute any missing parity from the (now complete) data shards.
	for _, mi := range missing {
		if mi < r.data {
			continue
		}
		out := make([]byte, size)
		row := r.enc.row(mi)
		for di := 0; di < r.data; di++ {
			mulSlice(row[di], dataBufs[di], out)
		}
		shards[mi] = out
	}
	return nil
}

// Split slices data into d equal shards (zero-padding the tail) and
// allocates p empty parity shards, ready for Encode. The returned shard
// size is ceil(len(data)/d).
func (r *RS) Split(data []byte) ([][]byte, int) {
	shardSize := (len(data) + r.data - 1) / r.data
	if shardSize == 0 {
		shardSize = 1
	}
	shards := make([][]byte, r.TotalShards())
	for i := 0; i < r.data; i++ {
		shards[i] = make([]byte, shardSize)
		start := i * shardSize
		if start < len(data) {
			copy(shards[i], data[start:])
		}
	}
	for i := r.data; i < r.TotalShards(); i++ {
		shards[i] = make([]byte, shardSize)
	}
	return shards, shardSize
}

// Join concatenates the data shards and trims to length n (inverse of Split).
func (r *RS) Join(shards [][]byte, n int) ([]byte, error) {
	if len(shards) < r.data {
		return nil, fmt.Errorf("%w: got %d shards, want ≥ %d", ErrShardCount, len(shards), r.data)
	}
	var out []byte
	for i := 0; i < r.data; i++ {
		if shards[i] == nil {
			return nil, fmt.Errorf("%w: data shard %d missing", ErrShardSize, i)
		}
		out = append(out, shards[i]...)
	}
	if n > len(out) {
		return nil, fmt.Errorf("%w: joined %d bytes, want %d", ErrShardSize, len(out), n)
	}
	return out[:n], nil
}
