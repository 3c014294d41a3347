// Package ev defines the serializable event token that replaces
// in-flight closures throughout the simulator.
//
// The event queue used to hold `func(now int64)` callbacks. Closures
// cannot be written to a checkpoint, so every deferred action is now a
// Token — a small value naming *what* to do (complete a core window
// slot, start or finish an MSHR fetch) plus the identifiers needed to
// do it. A Dispatcher (implemented by sim.System) turns a token back
// into the method call the closure used to capture.
//
// The token vocabulary is closed by construction: auditing every
// Scheduler.After / Backend.Request call site shows the only deferred
// actions are core slot completions, MSHR fetch starts, and MSHR fills
// (write-backs and stores pass the zero Token, meaning "no action").
// Keeping the set closed is what makes snapshots possible, so new
// deferred behavior must be added here as a new Kind, never as a
// closure.
//
// Snapshot/Restore contract: a Token is plain data; layers that buffer
// tokens (the event queue, MSHR waiter lists) serialize them with
// WriteToken and restore them verbatim with ReadToken. A memory request
// holds none: its read completes the LLC's miss on its block, which the
// system layer derives from the address.
package ev

import (
	"math"

	"repro/internal/fgss"
)

// Kind names the deferred action a Token performs.
type Kind uint8

const (
	// None is the zero token: no action. Write-backs and completed
	// stores schedule nothing.
	None Kind = iota
	// CoreSlot completes load slot Arg in core ID's window.
	CoreSlot
	// MSHRStart begins the backing fetch for block address Arg at
	// cache node ID (the miss latency has elapsed).
	MSHRStart
	// MSHRFill installs block address Arg into cache node ID (the
	// backing fetch has returned).
	MSHRFill
)

// Token is a defunctionalized event callback: Kind selects the action,
// ID names the acting component (core ID or cache node ID), and Arg
// carries the payload (window slot or block address).
type Token struct {
	Kind Kind
	ID   int32
	Arg  uint64
}

// IsZero reports whether the token performs no action.
func (t Token) IsZero() bool { return t.Kind == None }

// WriteToken appends a token as three scalars: kind, ID and Arg.
func WriteToken(w *fgss.Writer, t Token) {
	w.U64(uint64(t.Kind))
	w.I64(int64(t.ID))
	w.U64(t.Arg)
}

// ReadToken decodes a token WriteToken wrote. A kind or ID too wide for
// its field is a decode error, not a token cut down to fit; whether the
// token names anything is the restoring layer's check.
func ReadToken(r *fgss.Reader) Token {
	kind, id, arg := r.U64(), r.I64(), r.U64()
	if r.Err() == nil && (kind > math.MaxUint8 || id < math.MinInt32 || id > math.MaxInt32) {
		r.Reject("event token kind %d or ID %d does not fit its field", kind, id)
	}
	return Token{Kind: Kind(kind), ID: int32(id), Arg: arg}
}

// Dispatcher executes tokens. sim.System implements it by routing
// CoreSlot to cpu.Core.CompleteSlot and the MSHR kinds to the cache
// node registry.
type Dispatcher interface {
	Dispatch(t Token, now int64)
}
