package allocator

import "testing"

func TestBufListRecyclesByClass(t *testing.T) {
	l := BufList{Limit: 1 << 16}
	a := l.Get(3000, false)
	if len(a) != 3000 || cap(a) != 4096 {
		t.Fatalf("Get(3000) = len %d cap %d, want 3000/4096", len(a), cap(a))
	}
	for i := range a {
		a[i] = 0xEE
	}
	l.Put(a)
	if l.Held() != 4096 {
		t.Fatalf("Held = %d after one Put, want 4096", l.Held())
	}
	if b := l.Get(5000, false); cap(b) != 8192 || l.Held() != 4096 {
		t.Errorf("a request of another class took the 4096 buffer: cap %d, held %d", cap(b), l.Held())
	}
	c := l.Get(4096, true)
	if l.Held() != 0 {
		t.Fatalf("Held = %d after reuse, want 0", l.Held())
	}
	if &c[0] != &a[0] {
		t.Error("a request of the same class did not get the recycled buffer")
	}
	for i, b := range c {
		if b != 0 {
			t.Fatalf("zero=true returned byte %d = %#x", i, b)
		}
	}
	c[0] = 1
	l.Put(c)
	if d := l.Get(100, false); cap(d) != 128 {
		t.Errorf("Get(100) cap = %d, want 128", cap(d))
	}
	if d := l.Get(2049, false); d[0] != 1 {
		t.Error("zero=false cleared a recycled buffer: its caller overwrites it anyway")
	}
}

func TestBufListBound(t *testing.T) {
	l := BufList{Limit: 10000}
	for i := 0; i < 5; i++ {
		l.Put(make([]byte, 4096))
	}
	if l.Held() != 8192 {
		t.Errorf("Held = %d, want 8192: two 4096 buffers fit under 10000", l.Held())
	}
	l.Put(make([]byte, 1024))
	if l.Held() != 9216 {
		t.Errorf("Held = %d, want 9216: a small buffer still fits", l.Held())
	}
	// Not a class capacity: never kept, whatever room there is.
	l.Put(make([]byte, 100))
	l.Put(make([]byte, 0, 63))
	l.Put(nil)
	if l.Held() != 9216 {
		t.Errorf("Held = %d after odd-capacity Puts, want 9216", l.Held())
	}
	// A request whose class exceeds the bound is exact and leaves no trace.
	big := l.Get(10001, false)
	if len(big) != 10001 || cap(big) != 10001 {
		t.Errorf("over-bound Get = len %d cap %d, want exact", len(big), cap(big))
	}
	l.Put(big)
	if l.Held() != 9216 {
		t.Errorf("Held = %d after an over-bound Put, want 9216", l.Held())
	}
	l.Reset()
	if l.Held() != 0 || l.Limit != 10000 {
		t.Errorf("Reset left held %d limit %d", l.Held(), l.Limit)
	}
	if b := l.Get(4096, false); cap(b) != 4096 {
		t.Errorf("Get after Reset cap = %d", cap(b))
	}
}
