// Package arenaescapedep is the dependency side of the arenaescape
// fixtures: a view-returning helper (OwnedResult fact — ownership
// transfer, not a bug) and a releasing helper (Releases fact). Importers
// combining the two wrongly are reported only because these facts cross
// the package boundary.
package arenaescapedep

import "arenaescapefix"

// View transfers ownership of an arena view to the caller.
func View(a *arenaescapefix.Arena) []int { return a.Ints(3) }

// Done releases the caller's arena.
func Done(a *arenaescapefix.Arena) { a.Release() }

// PoolView transfers ownership of a struct view to the caller: returning
// it without a release earns an OwnedResult fact.
func PoolView(a *arenaescapefix.Arena) arenaescapefix.Pool { return a.Pool() }
