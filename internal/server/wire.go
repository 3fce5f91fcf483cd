package server

// JSON wire format of the GEMM service. One request is one
// C = alpha * op(A) op(B) + beta * C; matrices travel as flat row-major
// float64 arrays with explicit stored shapes, mirroring the library API
// (operands are the STORED matrices — for case "TN" pass A as the k x m
// array that will be used transposed).

import (
	"fmt"

	"srumma/internal/core"
)

// MultiplyRequest is the body of POST /v1/multiply.
type MultiplyRequest struct {
	// ID is an optional caller-chosen request identifier, echoed back in
	// the response and server logs.
	ID string `json:"id,omitempty"`
	// Case is the transpose case: "NN" (default), "TN", "NT" or "TT".
	Case string `json:"case,omitempty"`

	ARows int       `json:"a_rows"`
	ACols int       `json:"a_cols"`
	A     []float64 `json:"a"`
	BRows int       `json:"b_rows"`
	BCols int       `json:"b_cols"`
	B     []float64 `json:"b"`
	// C is the optional m x n input C, required when beta != 0.
	C []float64 `json:"c,omitempty"`

	// Alpha and Beta default to 1 and 0 when omitted.
	Alpha *float64 `json:"alpha,omitempty"`
	Beta  *float64 `json:"beta,omitempty"`

	// TimeoutMillis bounds this request's execution (queueing excluded);
	// 0 uses the server default. The deadline is enforced as cooperative
	// cancellation between SRUMMA tasks.
	TimeoutMillis int64 `json:"timeout_ms,omitempty"`
}

// MultiplyResponse is the success body of POST /v1/multiply.
type MultiplyResponse struct {
	ID   string    `json:"id,omitempty"`
	Rows int       `json:"rows"`
	Cols int       `json:"cols"`
	C    []float64 `json:"c"`
	// Route reports which execution tier served the request: "small"
	// (direct local kernel) or "srumma" (distributed multiply on a pooled
	// persistent team).
	Route string `json:"route"`
	// QueueMillis is time spent admitted but waiting for an engine;
	// ElapsedMillis is execution time after that.
	QueueMillis   float64 `json:"queue_ms"`
	ElapsedMillis float64 `json:"elapsed_ms"`
	GFlops        float64 `json:"gflops"`

	// Digest chain (present when the server runs with the result cache
	// enabled): keyed 128-bit content addresses of the operands as decoded
	// and of the result as served, hex-encoded — opaque tokens, comparable
	// with each other for the life of one server process and with nothing
	// else. DigestCIn is set only when beta != 0 (C unread otherwise). A
	// client can check that two requests carried the same operand, and
	// that a cached result digests identically to a fresh compute.
	DigestA   string `json:"digest_a,omitempty"`
	DigestB   string `json:"digest_b,omitempty"`
	DigestCIn string `json:"digest_c_in,omitempty"`
	Digest    string `json:"digest,omitempty"`
	// Cached reports that the result came from the content-addressed
	// result cache — bit-identical to a fresh compute — and the request
	// skipped the scheduler and engine entirely.
	Cached bool `json:"cached,omitempty"`
}

// ErrorResponse is the body of every non-2xx response.
type ErrorResponse struct {
	ID    string `json:"id,omitempty"`
	Error string `json:"error"`
	// RetryAfterSeconds accompanies 429 responses (also sent as the
	// Retry-After header): the client should back off at least this long.
	RetryAfterSeconds int `json:"retry_after_s,omitempty"`
}

// parseCase maps the wire case names onto core's transpose cases.
func parseCase(s string) (core.Case, error) {
	switch s {
	case "", "NN", "nn":
		return core.NN, nil
	case "TN", "tn":
		return core.TN, nil
	case "NT", "nt":
		return core.NT, nil
	case "TT", "tt":
		return core.TT, nil
	}
	return 0, fmt.Errorf("unknown case %q (want NN, TN, NT or TT)", s)
}

// opShape is the shape of op(X) for a stored rows x cols X.
func opShape(trans bool, rows, cols int) (int, int) {
	if trans {
		return cols, rows
	}
	return rows, cols
}

// dims derives (M, N, K) from the stored shapes under the transpose case
// and validates the request, enforcing maxDim as the resource-protection
// bound.
func (r *MultiplyRequest) dims(cs core.Case, maxDim int) (core.Dims, error) {
	if r.ARows <= 0 || r.ACols <= 0 || r.BRows <= 0 || r.BCols <= 0 {
		return core.Dims{}, fmt.Errorf("matrix shapes must be positive, got A %dx%d, B %dx%d", r.ARows, r.ACols, r.BRows, r.BCols)
	}
	for _, d := range []int{r.ARows, r.ACols, r.BRows, r.BCols} {
		if d > maxDim {
			return core.Dims{}, fmt.Errorf("dimension %d exceeds server limit %d", d, maxDim)
		}
	}
	if len(r.A) != r.ARows*r.ACols {
		return core.Dims{}, fmt.Errorf("a has %d elements, want a_rows*a_cols = %d", len(r.A), r.ARows*r.ACols)
	}
	if len(r.B) != r.BRows*r.BCols {
		return core.Dims{}, fmt.Errorf("b has %d elements, want b_rows*b_cols = %d", len(r.B), r.BRows*r.BCols)
	}
	m, k := opShape(cs.TransA(), r.ARows, r.ACols)
	kb, n := opShape(cs.TransB(), r.BRows, r.BCols)
	if k != kb {
		return core.Dims{}, fmt.Errorf("inner dimensions disagree: op(A) is %dx%d, op(B) is %dx%d", m, k, kb, n)
	}
	if r.beta() != 0 && len(r.C) != m*n {
		return core.Dims{}, fmt.Errorf("beta != 0 needs c with m*n = %d elements, got %d", m*n, len(r.C))
	}
	if r.beta() == 0 && len(r.C) != 0 && len(r.C) != m*n {
		return core.Dims{}, fmt.Errorf("c has %d elements, want %d (or omit it)", len(r.C), m*n)
	}
	d := core.Dims{M: m, N: n, K: k}
	return d, d.Validate()
}

func (r *MultiplyRequest) alpha() float64 {
	if r.Alpha == nil {
		return 1
	}
	return *r.Alpha
}

func (r *MultiplyRequest) beta() float64 {
	if r.Beta == nil {
		return 0
	}
	return *r.Beta
}
