// Package arena provides a bump allocator for the pointer-free arrays a
// simulated System is built from: cache line arrays, DRAM bank state,
// core window rings, controller per-bank registers. Carving them out of
// a few large chunks instead of one heap object each makes System
// construction a handful of allocations (the dominant cost of spinning
// up the thousands of short-lived Systems a harness matrix creates) and
// gives the garbage collector nothing to scan: the chunks are plain byte
// slices, legal to alias with typed slices precisely because the element
// types contain no pointers.
//
// An Arena is single-owner and append-only: the owner allocates during
// construction, holds the arena for the lifetime of every slice carved
// from it, and never frees. Each System owns its own arena, so the arena
// is garbage with the System it built, in a few large objects.
//
// The zero Arena is ready to use. A nil *Arena degrades every helper to
// the equivalent plain make, so construction paths can thread one
// optional allocator without branching at each site.
package arena

import (
	"fmt"
	"reflect"
	"unsafe"
)

const (
	// minChunk is the smallest chunk the arena grows by; doubling from
	// here keeps the chunk count logarithmic in the total footprint.
	minChunk = 64 << 10
	// maxChunk caps the growth so a huge hierarchy does not overshoot
	// its last chunk by nearly 2x.
	maxChunk = 4 << 20
)

// Arena is a growable bump allocator over pointer-free chunks.
type Arena struct {
	cur       []byte
	off       int
	retired   [][]byte // full chunks, kept alive for the slices carved from them
	nextChunk int      // size of the next chunk to grow by
	total     int      // bytes handed out (diagnostics)
}

// New returns an arena whose first chunk is pre-sized for sizeHint
// bytes, so a caller that can estimate its footprint gets exactly one
// chunk allocation. A non-positive hint defers to the default growth
// schedule.
func New(sizeHint int) *Arena {
	a := &Arena{nextChunk: minChunk}
	if sizeHint > 0 {
		a.cur = make([]byte, ceilPow2(sizeHint, minChunk))
	}
	return a
}

// TotalBytes returns the bytes allocated out of the arena so far.
func (a *Arena) TotalBytes() int {
	if a == nil {
		return 0
	}
	return a.total
}

// alloc returns a pointer to size zeroed bytes at the given alignment.
func (a *Arena) alloc(size, align int) unsafe.Pointer {
	off := (a.off + align - 1) &^ (align - 1)
	if off+size > len(a.cur) {
		a.grow(size)
		off = 0 // fresh chunks are heap allocations: aligned for any of our types
	}
	p := unsafe.Pointer(&a.cur[off])
	a.off = off + size
	a.total += size
	return p
}

// grow retires the current chunk and installs a fresh one of at least
// `size` bytes, doubling the growth schedule up to maxChunk.
func (a *Arena) grow(size int) {
	if a.cur != nil {
		a.retired = append(a.retired, a.cur)
	}
	n := a.nextChunk
	if a.nextChunk < maxChunk {
		a.nextChunk *= 2
	}
	if size > n {
		n = ceilPow2(size, minChunk)
	}
	a.cur = make([]byte, n)
	a.off = 0
}

// ceilPow2 rounds v up to a power-of-two multiple of at least min.
func ceilPow2(v, min int) int {
	n := min
	for n < v {
		n *= 2
	}
	return n
}

// Slice carves a zeroed []T of length n out of the arena. T must be
// free of pointers (no pointers, slices, maps, strings, channels,
// functions, or interfaces anywhere in it): the arena's chunks are byte
// slices the garbage collector never scans, so a pointer stored in one
// would not keep its referent alive. Violations panic at allocation
// time — they are construction-order programming errors, not run-time
// conditions.
//
// A nil arena (or n == 0) falls back to plain make, so optional-arena
// construction paths need no branching.
func Slice[T any](a *Arena, n int) []T {
	if a == nil || n <= 0 {
		return make([]T, n)
	}
	var zero T
	if t := reflect.TypeOf(zero); hasPointers(t) {
		panic(fmt.Sprintf("arena: %v contains pointers and cannot live in an arena", t))
	}
	size := int(unsafe.Sizeof(zero))
	if size == 0 {
		return make([]T, n)
	}
	p := a.alloc(n*size, int(unsafe.Alignof(zero)))
	return unsafe.Slice((*T)(p), n)
}

// hasPointers reports whether values of type t embed any pointer the
// garbage collector would need to trace.
func hasPointers(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Bool,
		reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return false
	case reflect.Array:
		return t.Len() > 0 && hasPointers(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if hasPointers(t.Field(i).Type) {
				return true
			}
		}
		return false
	default:
		// Ptr, Slice, Map, String, Chan, Func, Interface, UnsafePointer —
		// and anything a future reflect adds — are treated as pointerful.
		return true
	}
}
