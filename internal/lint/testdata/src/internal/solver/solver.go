// Package solver mirrors internal/mat's reusable NNLS solver:
// //dophy:returns borrowed(recv) results alias the solver's scratch until
// the next solve.
package solver

// solver owns reusable scratch.
type solver struct {
	x []float64
}

// Solve factors from scratch. The result aliases s.x.
//
//dophy:returns borrowed(recv) -- the result aliases s.x until the next solve
//dophy:invalidates
func (s *solver) Solve(b []float64) []float64 {
	if len(s.x) < len(b) {
		s.x = make([]float64, len(b))
	}
	for i := range b {
		s.x[i] = b[i]
	}
	return s.x
}

// SolveWarm refines the previous solution in place.
//
//dophy:returns borrowed(recv) -- the result aliases s.x until the next solve
//dophy:invalidates
func (s *solver) SolveWarm(b []float64) []float64 {
	for i := range b {
		s.x[i] += b[i]
	}
	return s.x
}

// staleRead keeps the first borrow across the second solve: by the time x
// is read the scratch has been rewritten.
func staleRead(b []float64) float64 {
	var s solver
	x := s.Solve(b)
	y := s.Solve(b)
	return x[0] + y[0] // want "x was borrowed from s's scratch"
}

// cache retains estimate vectors across calls.
type cache struct {
	last []float64
}

// remember stores the borrow itself: the field now aliases solver scratch.
func (c *cache) remember(s *solver, b []float64) {
	x := s.Solve(b)
	c.last = x // want "retaining the alias"
}

// rememberCopy is the sanctioned shape: one explicit copy at the
// retention boundary.
func (c *cache) rememberCopy(s *solver, b []float64) {
	c.last = append(c.last[:0], s.Solve(b)...)
}

// leak returns a borrow from a function that does not declare itself
// borrowing, so its caller cannot know the result is scratch.
func leak(s *solver, b []float64) []float64 {
	return s.Solve(b) // want "is returned from leak"
}

// handOff re-borrows legally: a returns-borrowed wrapper may forward the
// receiver's own borrow.
//
//dophy:returns borrowed(recv) -- forwards Solve's borrow of the same receiver
func (s *solver) handOff(b []float64) []float64 {
	return s.Solve(b)
}
