package fault

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestGFFieldAxioms(t *testing.T) {
	// Spot-check field axioms exhaustively over small ranges.
	for a := 0; a < 256; a++ {
		if gfMul(byte(a), 1) != byte(a) {
			t.Fatalf("1 is not identity for %d", a)
		}
		if gfMul(byte(a), 0) != 0 {
			t.Fatalf("0 not absorbing for %d", a)
		}
		if a != 0 {
			if gfMul(byte(a), gfInv(byte(a))) != 1 {
				t.Fatalf("inverse broken for %d", a)
			}
			if gfDiv(byte(a), byte(a)) != 1 {
				t.Fatalf("a/a != 1 for %d", a)
			}
		}
	}
	// Commutativity + associativity on a sample.
	for a := 1; a < 256; a += 7 {
		for b := 1; b < 256; b += 11 {
			if gfMul(byte(a), byte(b)) != gfMul(byte(b), byte(a)) {
				t.Fatalf("mul not commutative at %d,%d", a, b)
			}
			for c := 1; c < 256; c += 37 {
				l := gfMul(gfMul(byte(a), byte(b)), byte(c))
				r := gfMul(byte(a), gfMul(byte(b), byte(c)))
				if l != r {
					t.Fatalf("mul not associative at %d,%d,%d", a, b, c)
				}
			}
		}
	}
}

func TestGFDivPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("division by zero must panic")
		}
	}()
	gfDiv(5, 0)
}

func TestGFInvZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("inverse of zero must panic")
		}
	}()
	gfInv(0)
}

func TestMatrixInvert(t *testing.T) {
	// Invert a known-invertible Vandermonde block and check m×inv = I.
	for n := 1; n <= 8; n++ {
		v := vandermonde(n, n)
		inv, ok := v.invert()
		if !ok {
			t.Fatalf("vandermonde %d×%d must invert", n, n)
		}
		prod := v.mul(inv)
		id := identity(n)
		if !bytes.Equal(prod.data, id.data) {
			t.Fatalf("m×inv != I for n=%d", n)
		}
	}
	// Singular matrix: two equal rows.
	m := newMatrix(2, 2)
	m.set(0, 0, 3)
	m.set(0, 1, 5)
	m.set(1, 0, 3)
	m.set(1, 1, 5)
	if _, ok := m.invert(); ok {
		t.Error("singular matrix must not invert")
	}
	if _, ok := newMatrix(2, 3).invert(); ok {
		t.Error("non-square matrix must not invert")
	}
}

func TestNewRSValidation(t *testing.T) {
	for _, bad := range [][2]int{{0, 2}, {4, 0}, {-1, 3}, {200, 100}} {
		if _, err := NewRS(bad[0], bad[1]); err == nil {
			t.Errorf("NewRS(%d,%d) must fail", bad[0], bad[1])
		}
	}
	rs, err := NewRS(8, 3)
	if err != nil {
		t.Fatal(err)
	}
	if rs.DataShards() != 8 || rs.TotalShards() != 11 {
		t.Error("geometry accessors wrong")
	}
}

// Verify recomputes parity and reports whether it matches shards[d:].
func (r *RS) Verify(shards [][]byte) (bool, error) {
	size, err := r.checkShards(shards, true)
	if err != nil {
		return false, err
	}
	buf := make([]byte, size)
	for pi := 0; pi < r.parity; pi++ {
		for i := range buf {
			buf[i] = 0
		}
		row := r.enc.row(r.data + pi)
		for di := 0; di < r.data; di++ {
			mulSlice(row[di], shards[di], buf)
		}
		got := shards[r.data+pi]
		for i := range buf {
			if buf[i] != got[i] {
				return false, nil
			}
		}
	}
	return true, nil
}

func TestEncodeVerifyRoundtrip(t *testing.T) {
	rs, _ := NewRS(4, 2)
	shards, _ := rs.Split([]byte("hello, disaggregated world! this is a reed-solomon test payload."))
	if err := rs.Encode(shards); err != nil {
		t.Fatal(err)
	}
	ok, err := rs.Verify(shards)
	if err != nil || !ok {
		t.Fatalf("verify = %t, %v", ok, err)
	}
	// Corrupt one byte: verification must fail.
	shards[2][0] ^= 0xff
	ok, err = rs.Verify(shards)
	if err != nil || ok {
		t.Fatal("corruption must fail verification")
	}
}

func TestReconstructAllErasurePatterns(t *testing.T) {
	// RS(6,4): every pattern of ≤2 erasures must reconstruct exactly.
	rs, err := NewRS(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 1000)
	for i := range payload {
		payload[i] = byte(i * 31)
	}
	orig, _ := rs.Split(payload)
	if err := rs.Encode(orig); err != nil {
		t.Fatal(err)
	}
	n := rs.TotalShards()
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			shards := make([][]byte, n)
			for k := range shards {
				if k == i || k == j {
					continue
				}
				shards[k] = append([]byte(nil), orig[k]...)
			}
			if err := rs.Reconstruct(shards); err != nil {
				t.Fatalf("erasures {%d,%d}: %v", i, j, err)
			}
			for k := range shards {
				if !bytes.Equal(shards[k], orig[k]) {
					t.Fatalf("erasures {%d,%d}: shard %d mismatch", i, j, k)
				}
			}
		}
	}
}

func TestReconstructTooManyErasures(t *testing.T) {
	rs, _ := NewRS(4, 2)
	orig, _ := rs.Split(make([]byte, 100))
	if err := rs.Encode(orig); err != nil {
		t.Fatal(err)
	}
	shards := make([][]byte, rs.TotalShards())
	for k := 3; k < len(shards); k++ { // only 3 of 4 data needed shards present
		shards[k] = orig[k]
	}
	shards[3], shards[4], shards[5] = nil, nil, nil // now only 0 present... rebuild properly:
	for k := range shards {
		shards[k] = nil
	}
	shards[0], shards[1], shards[2] = orig[0], orig[1], orig[2] // 3 < d=4
	if err := rs.Reconstruct(shards); err == nil {
		t.Error("3 of 6 shards with d=4 must fail")
	}
}

func TestShardValidation(t *testing.T) {
	rs, _ := NewRS(2, 1)
	if err := rs.Encode([][]byte{{1}, {2}}); err == nil {
		t.Error("wrong shard count must fail")
	}
	if err := rs.Encode([][]byte{{1}, {2, 3}, {4}}); err == nil {
		t.Error("mixed sizes must fail")
	}
	if err := rs.Encode([][]byte{{1}, nil, {2}}); err == nil {
		t.Error("nil shard must fail encode")
	}
	if err := rs.Reconstruct([][]byte{nil, nil, nil}); err == nil {
		t.Error("all-nil must fail reconstruct")
	}
}

func TestSplitJoin(t *testing.T) {
	rs, _ := NewRS(3, 2)
	payload := []byte("uneven payload that does not divide evenly")
	shards, shardSize := rs.Split(payload)
	if shardSize != (len(payload)+2)/3 {
		t.Errorf("shardSize = %d", shardSize)
	}
	got, err := rs.Join(shards, len(payload))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Error("split/join must round-trip")
	}
	if _, err := rs.Join(shards[:2], 10); err == nil {
		t.Error("join with too few shards must fail")
	}
	if _, err := rs.Join(shards, 1<<20); err == nil {
		t.Error("join with oversize n must fail")
	}
	empty, size := rs.Split(nil)
	if size != 1 || len(empty) != 5 {
		t.Error("empty split must produce 1-byte shards")
	}
}

// Property: for random geometries, payloads, and erasure patterns within
// the parity budget, decode(encode(x)) == x.
func TestReedSolomonRoundtripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := 1 + rng.Intn(8)
		p := 1 + rng.Intn(4)
		rs, err := NewRS(d, p)
		if err != nil {
			return false
		}
		payload := make([]byte, 1+rng.Intn(4096))
		rng.Read(payload)
		shards, _ := rs.Split(payload)
		if err := rs.Encode(shards); err != nil {
			return false
		}
		// Erase up to p random shards.
		erasures := rng.Intn(p + 1)
		for e := 0; e < erasures; e++ {
			shards[rng.Intn(d+p)] = nil
		}
		if err := rs.Reconstruct(shards); err != nil {
			return false
		}
		got, err := rs.Join(shards, len(payload))
		if err != nil {
			return false
		}
		return bytes.Equal(got, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: parity is linear — encoding the XOR of two payloads gives the
// XOR of the parities (GF(2^8) addition is XOR).
func TestParityLinearityProperty(t *testing.T) {
	rs, _ := NewRS(4, 2)
	f := func(a, b [64]byte) bool {
		sa, _ := rs.Split(a[:])
		sb, _ := rs.Split(b[:])
		var xored [64]byte
		for i := range a {
			xored[i] = a[i] ^ b[i]
		}
		sx, _ := rs.Split(xored[:])
		if rs.Encode(sa) != nil || rs.Encode(sb) != nil || rs.Encode(sx) != nil {
			return false
		}
		for pi := 4; pi < 6; pi++ {
			for i := range sx[pi] {
				if sx[pi][i] != sa[pi][i]^sb[pi][i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func BenchmarkRSEncode(b *testing.B) {
	rs, err := NewRS(8, 3)
	if err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, 1<<20)
	shards, _ := rs.Split(payload)
	b.SetBytes(1 << 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := rs.Encode(shards); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRSReconstruct(b *testing.B) {
	rs, err := NewRS(8, 3)
	if err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, 1<<20)
	for i := range payload {
		payload[i] = byte(i)
	}
	orig, _ := rs.Split(payload)
	if err := rs.Encode(orig); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(1 << 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		shards := make([][]byte, len(orig))
		copy(shards, orig)
		shards[0], shards[5], shards[9] = nil, nil, nil
		if err := rs.Reconstruct(shards); err != nil {
			b.Fatal(err)
		}
	}
}
