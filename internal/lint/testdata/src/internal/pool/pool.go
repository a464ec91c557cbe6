// Package pool owns a free-listed (pooled) type, mirroring collect.hopCont.
package pool

// Obj is recycled through Pool's free list.
type Obj struct {
	ID   int
	next *Obj // same-package reference: fine
}

// Pool recycles Objs; the free field marks Obj as pooled.
type Pool struct {
	free []*Obj
	live int
}

// Get hands out a live Obj.
func (p *Pool) Get() *Obj {
	if n := len(p.free); n > 0 {
		o := p.free[n-1]
		p.free = p.free[:n-1]
		p.live++
		return o
	}
	p.live++
	return &Obj{}
}

// Put recycles an Obj; the caller's pointer is dead afterwards.
func (p *Pool) Put(o *Obj) {
	p.live--
	p.free = append(p.free, o)
}
