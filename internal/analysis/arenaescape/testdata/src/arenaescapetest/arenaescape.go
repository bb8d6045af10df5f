// Package arenaescapetest exercises arenaescape: escapes recognized only
// through imported facts, CFG-path sensitivity, deferred releases, every
// escape class, and the transfer/copy shapes that must stay silent.
package arenaescapetest

import (
	"arenaescapedep"
	"arenaescapefix"
)

// --- cross-package facts ---

// Bad combines an imported view-minting helper with a local release; only
// the OwnedResult fact on View says v aliases a.
func Bad(a *arenaescapefix.Arena) []int {
	v := arenaescapedep.View(a)
	a.Release()
	return v // want `value owned by a escapes via return value on a path where a is released`
}

// BadDone combines a local view with an imported releasing helper; only
// the Releases fact on Done says a is recycled.
func BadDone(a *arenaescapefix.Arena) []int {
	v := a.Ints(2)
	arenaescapedep.Done(a)
	return v // want `value owned by a escapes via return value on a path where a is released`
}

// --- same-package chain through the fixpoint ---

// BadLocalHelper uses helpers declared below it; their summaries come from
// the package-local fixpoint, not imported facts.
func BadLocalHelper(a *arenaescapefix.Arena) []int {
	v := view(a)
	done(a)
	return v // want `value owned by a escapes via return value on a path where a is released`
}

func view(a *arenaescapefix.Arena) []int { return a.Ints(9) }

func done(a *arenaescapefix.Arena) { a.Release() }

// --- CFG-path sensitivity ---

// BadBranch releases on one branch only; the join still returns the view,
// so a release->escape path exists.
func BadBranch(a *arenaescapefix.Arena, drop bool) []int {
	v := a.Ints(1)
	if drop {
		a.Release()
	}
	return v // want `value owned by a escapes via return value on a path where a is released`
}

// GoodBranch keeps release and escape on disjoint paths: the releasing arm
// returns nil, the view only leaves while the arena is alive.
func GoodBranch(a *arenaescapefix.Arena, drop bool) []int {
	v := a.Ints(1)
	if drop {
		a.Release()
		return nil
	}
	return v
}

// BadDefer defers the release, putting it on every path out.
func BadDefer(a *arenaescapefix.Arena) []int {
	defer a.Release()
	v := a.Ints(5)
	return v // want `value owned by a escapes via return value on a path where a is released`
}

// --- other escape classes ---

var leaked []int

// BadGlobal parks the view in a package-level variable before recycling.
func BadGlobal(a *arenaescapefix.Arena) {
	leaked = a.Ints(2) // want `value owned by a escapes via package-level variable on a path where a is released`
	a.Release()
}

// BadSend hands the view to another goroutine.
func BadSend(a *arenaescapefix.Arena, ch chan []int) {
	v := a.Ints(2)
	ch <- v // want `value owned by a escapes via channel send on a path where a is released`
	a.Release()
}

// BadClosure smuggles the view inside a returned closure.
func BadClosure(a *arenaescapefix.Arena) func() int {
	v := a.Ints(1)
	f := func() int { return v[0] }
	a.Release()
	return f // want `value owned by a escapes via return value on a path where a is released`
}

// --- struct views ---

// BadPoolReset resets the arena and returns its pool: the struct holds a
// slice of the recycled storage, so it is as dangling as the slice.
func BadPoolReset(a *arenaescapefix.Arena) arenaescapefix.Pool {
	a.Release()
	return a.Pool() // want `value owned by a escapes via return value on a path where a is released`
}

// BadPoolDep combines an imported struct-view helper with a local release;
// only the OwnedResult fact PoolView earned says p aliases a.
func BadPoolDep(a *arenaescapefix.Arena) arenaescapefix.Pool {
	p := arenaescapedep.PoolView(a)
	a.Release()
	return p // want `value owned by a escapes via return value on a path where a is released`
}

// BadPoolArray carries struct views in an array.
func BadPoolArray(a *arenaescapefix.Arena) [1]arenaescapefix.Pool {
	ps := [1]arenaescapefix.Pool{a.Pool()}
	a.Release()
	return ps // want `value owned by a escapes via return value on a path where a is released`
}

// TransferPool returns the struct view without a release: an ownership
// transfer, silent here and recorded as an OwnedResult fact.
func TransferPool(a *arenaescapefix.Arena) arenaescapefix.Pool {
	return a.Pool()
}

// BadTransferPool shows the fact TransferPool earned at work within the
// package: the local release makes the transferred view dangle.
func BadTransferPool(a *arenaescapefix.Arena) arenaescapefix.Pool {
	p := TransferPool(a)
	a.Release()
	return p // want `value owned by a escapes via return value on a path where a is released`
}

// --- forwarded multi-value calls ---

// poolErr returns a struct view next to an error, earning an OwnedResult
// fact for result 0.
func poolErr(a *arenaescapefix.Arena) (arenaescapefix.Pool, error) {
	return a.Pool(), nil
}

// BadForward releases the arena and forwards a call whose first result is
// a view of it: the tuple is checked result by result.
func BadForward(a *arenaescapefix.Arena) (arenaescapefix.Pool, error) {
	a.Release()
	return poolErr(a) // want `value owned by a escapes via return value on a path where a is released`
}

// TransferForward forwards the call without a release: a transfer, which
// earns the forwarding function the same fact.
func TransferForward(a *arenaescapefix.Arena) (arenaescapefix.Pool, error) {
	return poolErr(a)
}

// BadTransferForward shows the fact TransferForward earned at work.
func BadTransferForward(a *arenaescapefix.Arena) arenaescapefix.Pool {
	p, _ := TransferForward(a)
	a.Release()
	return p // want `value owned by a escapes via return value on a path where a is released`
}

// --- silent shapes ---

// Transfer returns the view without releasing: ownership moves to the
// caller (this is the engine's sampleSource.draw shape), recorded as a fact.
func Transfer(a *arenaescapefix.Arena) []int {
	return a.Ints(4)
}

// GoodCopy extracts a scalar: the value is copied out of the arena, so the
// release is harmless.
func GoodCopy(a *arenaescapefix.Arena) int {
	v := a.Ints(1)
	n := v[0]
	a.Release()
	return n
}
