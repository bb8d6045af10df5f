// Package arenaescapefix declares the fixture arena: a named type the
// analyzer recognizes by name, a view-minting method (which earns an
// OwnedResult fact on its receiver), and a Release method matched
// intrinsically at call sites.
package arenaescapefix

// Arena owns reusable backing storage, like influence.Arena.
type Arena struct{ buf []int }

// New returns an empty arena.
func New() *Arena { return &Arena{} }

// Ints carves an n-element view out of the backing array; the view dies at
// the next Release.
func (a *Arena) Ints(n int) []int {
	start := len(a.buf)
	for i := 0; i < n; i++ {
		a.buf = append(a.buf, 0)
	}
	return a.buf[start:]
}

// Pool is a struct view of the backing array, like influence.Pool: no
// pointer of its own, but a slice field that aliases the arena.
type Pool struct {
	ints []int
	n    int
}

// Pool returns the arena's contents as a struct view; it dies at the next
// Release like any slice view.
func (a *Arena) Pool() Pool { return Pool{ints: a.buf, n: len(a.buf)} }

// Release recycles the backing storage.
func (a *Arena) Release() { a.buf = a.buf[:0] }
