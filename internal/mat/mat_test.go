package mat

import (
	"testing"
	"testing/quick"
)

func TestNewShape(t *testing.T) {
	m := New(3, 5)
	if m.Rows != 3 || m.Cols != 5 || m.Stride != 5 || len(m.Data) != 15 {
		t.Fatalf("unexpected matrix: %+v", m)
	}
}

func TestAtSet(t *testing.T) {
	m := New(4, 4)
	m.Set(2, 3, 7.5)
	if got := m.At(2, 3); got != 7.5 {
		t.Fatalf("At(2,3) = %v, want 7.5", got)
	}
	if got := m.At(3, 2); got != 0 {
		t.Fatalf("At(3,2) = %v, want 0", got)
	}
}

func TestAtPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(2, 2).At(2, 0)
}

func TestViewSharesStorage(t *testing.T) {
	m := Indexed(6, 6)
	v := m.View(2, 3, 2, 2)
	if v.At(0, 0) != m.At(2, 3) || v.At(1, 1) != m.At(3, 4) {
		t.Fatalf("view contents wrong: %v vs %v", v.At(0, 0), m.At(2, 3))
	}
	v.Set(0, 1, -1)
	if m.At(2, 4) != -1 {
		t.Fatal("view write did not reach parent")
	}
}

func TestViewZeroSize(t *testing.T) {
	m := Indexed(4, 4)
	v := m.View(1, 1, 0, 0)
	if v.Rows != 0 || v.Cols != 0 {
		t.Fatalf("zero view has shape %dx%d", v.Rows, v.Cols)
	}
	// An empty view on the far edge — the block of a rank that owns no rows
	// or no columns — starts past the data and must still be a view.
	for _, e := range []*Matrix{m.View(4, 2, 0, 2), m.View(2, 4, 2, 0), m.View(4, 4, 0, 0)} {
		if len(e.Data) != 0 || e.Stride != m.Stride {
			t.Fatalf("edge view %dx%d holds %d elements, stride %d", e.Rows, e.Cols, len(e.Data), e.Stride)
		}
	}
}

func TestCloneIndependent(t *testing.T) {
	m := Indexed(3, 4)
	c := m.Clone()
	c.Set(0, 0, 99)
	if m.At(0, 0) == 99 {
		t.Fatal("clone shares storage with original")
	}
	if c.At(2, 3) != m.At(2, 3) {
		t.Fatal("clone contents differ")
	}
}

func TestCloneOfView(t *testing.T) {
	m := Indexed(5, 5)
	v := m.View(1, 1, 3, 3)
	c := v.Clone()
	if c.Stride != 3 {
		t.Fatalf("clone of view should have tight stride, got %d", c.Stride)
	}
	if MaxAbsDiff(c, v) != 0 {
		t.Fatal("clone of view has different contents")
	}
}

func TestZeroRespectsView(t *testing.T) {
	m := Indexed(4, 4)
	m.View(1, 1, 2, 2).Zero()
	if m.At(1, 1) != 0 || m.At(2, 2) != 0 {
		t.Fatal("view not zeroed")
	}
	if m.At(0, 0) == 0 || m.At(3, 3) == 0 || m.At(1, 3) == 0 {
		t.Fatal("zeroing leaked outside the view")
	}
}

func TestFill(t *testing.T) {
	m := New(3, 3)
	m.Fill(2.5)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if m.At(i, j) != 2.5 {
				t.Fatalf("(%d,%d) = %v", i, j, m.At(i, j))
			}
		}
	}
}

func TestTranspose(t *testing.T) {
	m := Indexed(2, 3)
	tr := m.Transpose()
	if tr.Rows != 3 || tr.Cols != 2 {
		t.Fatalf("transpose shape %dx%d", tr.Rows, tr.Cols)
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			if m.At(i, j) != tr.At(j, i) {
				t.Fatalf("transpose mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestEqual(t *testing.T) {
	a := Indexed(3, 3)
	b := Indexed(3, 3)
	if !Equal(a, b) {
		t.Fatal("identical matrices reported unequal")
	}
	b.Set(1, 1, -5)
	if Equal(a, b) {
		t.Fatal("different matrices reported equal")
	}
	if Equal(a, Indexed(3, 4)) {
		t.Fatal("different shapes reported equal")
	}
}

func TestMaxAbsDiff(t *testing.T) {
	a := New(2, 2)
	b := New(2, 2)
	b.Set(1, 0, -3)
	if d := MaxAbsDiff(a, b); d != 3 {
		t.Fatalf("MaxAbsDiff = %v, want 3", d)
	}
}

func TestPackUnpackRoundTrip(t *testing.T) {
	src := Indexed(6, 7)
	buf := make([]float64, 12)
	n := PackInto(buf, src, 2, 3, 3, 4)
	if n != 12 {
		t.Fatalf("packed %d elements, want 12", n)
	}
	dst := New(6, 7)
	UnpackFrom(dst, buf, 2, 3, 3, 4)
	if MaxAbsDiff(dst.View(2, 3, 3, 4), src.View(2, 3, 3, 4)) != 0 {
		t.Fatal("round trip lost data")
	}
	// Outside the block must stay zero.
	if dst.At(0, 0) != 0 || dst.At(5, 6) != 0 {
		t.Fatal("unpack wrote outside the target block")
	}
}

func TestPackUnpackQuick(t *testing.T) {
	f := func(seed uint64, ri, rj uint8) bool {
		rows := 1 + int(ri%8)
		cols := 1 + int(rj%8)
		src := Random(rows+4, cols+4, seed)
		buf := make([]float64, rows*cols)
		PackInto(buf, src, 2, 2, rows, cols)
		dst := New(rows+4, cols+4)
		UnpackFrom(dst, buf, 2, 2, rows, cols)
		return MaxAbsDiff(dst.View(2, 2, rows, cols), src.View(2, 2, rows, cols)) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRNGDeterministic(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed produced different streams")
		}
	}
	if NewRNG(1).Uint64() == NewRNG(2).Uint64() {
		t.Fatal("different seeds produced identical first values")
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 1000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestRandomDeterministic(t *testing.T) {
	if !Equal(Random(5, 5, 9), Random(5, 5, 9)) {
		t.Fatal("Random not deterministic for fixed seed")
	}
	if Equal(Random(5, 5, 9), Random(5, 5, 10)) {
		t.Fatal("Random identical across seeds")
	}
}

func TestIndexedPattern(t *testing.T) {
	m := Indexed(3, 4)
	if m.At(0, 0) != 1 || m.At(2, 3) != 12 || m.At(1, 0) != 5 {
		t.Fatalf("Indexed pattern wrong: %v %v %v", m.At(0, 0), m.At(2, 3), m.At(1, 0))
	}
}
