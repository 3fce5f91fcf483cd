package srumma

import (
	"context"
	"errors"
	"testing"

	"srumma/internal/mat"
)

// TestPersistentClusterBitIdenticalToOneShot pins the acceptance property
// of the persistent engine: a cluster switched to a parked team serves 100
// sequential multiplies whose results are BIT-identical to the one-shot
// engine — same task schedule, same split-k summation order, only the
// rank-goroutine lifecycle differs.
func TestPersistentClusterBitIdenticalToOneShot(t *testing.T) {
	a := RandomMatrix(48, 48, 7)
	b := RandomMatrix(48, 48, 8)

	cl, err := NewCluster(4, 2, false)
	if err != nil {
		t.Fatal(err)
	}
	ref, _, err := cl.Multiply(a, b, MultiplyOptions{}) // one-shot mode
	if err != nil {
		t.Fatal(err)
	}

	if err := cl.Persist(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := cl.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
	}()
	if !cl.Persistent() {
		t.Fatal("Persistent() = false after Persist")
	}
	n := 100
	if testing.Short() {
		n = 10
	}
	for i := 0; i < n; i++ {
		got, rep, err := cl.Multiply(a, b, MultiplyOptions{})
		if err != nil {
			t.Fatalf("multiply %d: %v", i, err)
		}
		if !mat.Equal(got, ref) {
			t.Fatalf("multiply %d: persistent result differs from one-shot (max abs diff %g)",
				i, mat.MaxAbsDiff(got, ref))
		}
		if rep.Seconds <= 0 {
			t.Fatalf("multiply %d: report has no timing", i)
		}
	}
}

func TestPersistIdempotentAndCloseReverts(t *testing.T) {
	cl, err := NewCluster(4, 4, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Persist(); err != nil {
		t.Fatal(err)
	}
	if err := cl.Persist(); err != nil { // second call is a no-op
		t.Fatal(err)
	}
	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}
	if cl.Persistent() {
		t.Fatal("still persistent after Close")
	}
	if err := cl.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	// One-shot mode still works after the team is gone.
	a, b := RandomMatrix(24, 24, 1), RandomMatrix(24, 24, 2)
	if _, _, err := cl.Multiply(a, b, MultiplyOptions{}); err != nil {
		t.Fatal(err)
	}
}

// TestMultiplyContextCancelled verifies the public cancellation contract: a
// cancelled context aborts the multiply with ErrCancelled and the same
// cluster — persistent team included — keeps serving correct results.
func TestMultiplyContextCancelled(t *testing.T) {
	a := RandomMatrix(64, 64, 3)
	b := RandomMatrix(64, 64, 4)
	cl, err := NewCluster(4, 2, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Persist(); err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err = cl.Multiply(a, b, MultiplyOptions{Context: ctx})
	if !errors.Is(err, ErrCancelled) {
		t.Fatalf("err = %v, want ErrCancelled", err)
	}

	got, _, err := cl.Multiply(a, b, MultiplyOptions{Context: context.Background()})
	if err != nil {
		t.Fatalf("multiply after cancellation: %v", err)
	}
	want := NewMatrix(64, 64)
	if err := mat.Gemm(false, false, 1, a, b, 0, want); err != nil {
		t.Fatal(err)
	}
	if d := mat.MaxAbsDiff(got, want); d > 1e-10 {
		t.Fatalf("post-cancel result wrong: max abs diff %g", d)
	}
}

// TestNewServerPublicAPI exercises the re-exported serving surface.
func TestNewServerPublicAPI(t *testing.T) {
	s, err := NewServer(ServerConfig{NProcs: 4})
	if err != nil {
		t.Fatal(err)
	}
	var m ServerMetrics = s.Metrics()
	if m.QueueCap != 8 {
		t.Fatalf("queue_cap = %d, want default 8", m.QueueCap)
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}
