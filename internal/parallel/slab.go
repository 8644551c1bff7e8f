package parallel

import "sync"

// Slab recycles []T scratch buffers across invocations of the hot
// kernels. The hot protocol paths (secure GEMM, im2col lowering, the IKNP
// column matrices) need large per-call temporaries whose lifetime ends
// inside the call; allocating them fresh each inference dominates the
// allocation profile without contributing anything. A Slab hands the same
// backing arrays back out call after call.
//
// The zero value is ready to use. All methods are safe for concurrent
// use; distinct goroutines simply draw distinct buffers.
type Slab[T any] struct {
	pool sync.Pool
}

// Get returns a length-n scratch slice. Contents are unspecified —
// kernels that rely on zeroed output (im2col padding, GEMM accumulation)
// clear their destination themselves.
func (s *Slab[T]) Get(n int) []T {
	if v, ok := s.pool.Get().(*[]T); ok {
		if cap(*v) >= n {
			return (*v)[:n]
		}
		// Too small for this request: drop it. Put back, it would land in
		// this P's private slot, where the next Get of this size would find
		// it and miss again; dropped, the pool converges on buffers large
		// enough for every caller.
	}
	return make([]T, n)
}

// Put recycles a buffer obtained from Get (or anywhere else). The caller
// must not touch b afterwards.
func (s *Slab[T]) Put(b []T) {
	if cap(b) == 0 {
		return
	}
	b = b[:cap(b)]
	s.pool.Put(&b)
}
