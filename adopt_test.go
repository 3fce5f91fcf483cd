package srumma

// Multiply uses the caller's A and B where they lie and computes C in
// place: these tests pin what a caller can see of that — operands that are
// views of wider matrices work and come back bit-for-bit untouched, a
// multiply cancelled mid-flight leaves the
// persistent team serving correct results, and a warm 1024³ call allocates
// its 8 MiB result and next to nothing else.

import (
	"context"
	"errors"
	"runtime"
	"runtime/debug"
	"sort"
	"testing"
	"time"

	"srumma/internal/mat"
)

func TestMultiplyOnViewsLeavesOperandsUntouched(t *testing.T) {
	cl, err := NewCluster(6, 2, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, cs := range []Case{NN, TN, NT, TT} {
		ar, ac, br, bc := 61, 47, 47, 53
		if cs.TransA() {
			ar, ac = ac, ar
		}
		if cs.TransB() {
			br, bc = bc, br
		}
		aWhole, bWhole := RandomMatrix(ar+4, ac+2, 1), RandomMatrix(br+1, bc+7, 2)
		a, b := aWhole.View(3, 1, ar, ac), bWhole.View(1, 5, br, bc)
		aWas, bWas := aWhole.Clone(), bWhole.Clone()

		// The same product from tight private copies is the reference.
		want, _, err := cl.Multiply(a.Clone(), b.Clone(), MultiplyOptions{Case: cs})
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := cl.Multiply(a, b, MultiplyOptions{Case: cs})
		if err != nil {
			t.Fatalf("%v: %v", cs, err)
		}
		if got.Stride != got.Cols || len(got.Data) != got.Rows*got.Cols {
			t.Fatalf("%v: the result is not a tight matrix", cs)
		}
		if !mat.Equal(got, want) {
			t.Errorf("%v: product of views differs from product of their copies", cs)
		}
		if !mat.Equal(aWhole, aWas) || !mat.Equal(bWhole, bWas) {
			t.Fatalf("%v: Multiply wrote to the caller's operands", cs)
		}
	}
}

func TestMultiplyCancelledMidFlightTeamReusable(t *testing.T) {
	cl, err := NewCluster(4, 2, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Persist(); err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	a, b := RandomMatrix(768, 768, 3), RandomMatrix(768, 768, 4)
	want, _, err := cl.Multiply(a, b, MultiplyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 500*time.Microsecond)
	defer cancel()
	if _, _, err := cl.Multiply(a, b, MultiplyOptions{Context: ctx}); err != nil && !errors.Is(err, ErrCancelled) {
		t.Fatalf("err = %v, want ErrCancelled or a finished multiply", err)
	}
	got, _, err := cl.Multiply(a, b, MultiplyOptions{})
	if err != nil {
		t.Fatalf("multiply after cancellation: %v", err)
	}
	if !mat.Equal(got, want) {
		t.Fatal("the team's result changed after a cancelled multiply")
	}
}

// TestMultiplyAllocatesOnlyTheResult: on a warm persistent team a 1024³
// multiply allocates the 8 MiB result plus at most 64 KiB — no segments,
// no staging copies, no gathered blocks (70–78 MB per call before operands
// were adopted).
func TestMultiplyAllocatesOnlyTheResult(t *testing.T) {
	if testing.Short() {
		t.Skip("1024³ multiplies")
	}
	if raceEnabled {
		t.Skip("the race detector allocates on its own account and sync.Pool drops puts under it")
	}
	cl, err := NewCluster(4, 2, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Persist(); err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	const n = 1024
	a, b := RandomMatrix(n, n, 1), RandomMatrix(n, n, 2)
	multiply := func() {
		if _, _, err := cl.Multiply(a, b, MultiplyOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		multiply() // warm the scratch and pack pools
	}
	// With the collector held off, the pooled scratch and pack buffers stay
	// pooled. A pool can still grow — the first time more ranks overlap than
	// in any call before — so the pin is on the median call.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var perCalls []uint64
	for i := 0; i < 7; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		multiply()
		runtime.ReadMemStats(&after)
		perCalls = append(perCalls, after.TotalAlloc-before.TotalAlloc)
	}
	sort.Slice(perCalls, func(i, j int) bool { return perCalls[i] < perCalls[j] })
	perCall := perCalls[len(perCalls)/2]
	if limit := uint64(n*n*8 + 64<<10); perCall > limit {
		t.Fatalf("Multiply allocates %d bytes per call, want at most the result + 64 KiB = %d", perCall, limit)
	}
}
