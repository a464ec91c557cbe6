// Package experiment mirrors the real internal/experiment: goroutines
// are legal only in files that declare a concurrency boundary — this
// one. other.go has no pragma, so its stray go statement still trips
// determflow even though the package as a whole is sanctioned.
//
//dophy:concurrency-boundary -- fan-out over independent closures; joined before return
package experiment

// RunAll fans work out across workers; this file is the boundary.
func RunAll(fs []func()) {
	done := make(chan struct{})
	for _, f := range fs {
		f := f
		go func() {
			f()
			done <- struct{}{}
		}()
	}
	for range fs {
		<-done
	}
}
