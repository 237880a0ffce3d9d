// Package locksafe exercises the locksafe rule: every Lock/RLock is followed
// by a deferred Unlock/RUnlock on the same primitive, nothing blocks between
// such a pair and the end of its block, and no struct embeds a lock. (Copied
// locks — value receivers, by-value parameters — are go vet's copylocks.)
package locksafe

import "sync"

type S struct {
	mu    sync.Mutex
	rw    sync.RWMutex
	order sync.Mutex
	wg    sync.WaitGroup
	ch    chan int
	n     int
}

// Good is the canonical disciplined shape: clean.
func (s *S) Good() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.n++
}

// GoodRead is the read-side pair: clean.
func (s *S) GoodRead() int {
	s.rw.RLock()
	defer s.rw.RUnlock()
	return s.n
}

// Explicit unlocks without defer. It is correct, but the rule only proves
// the deferred idiom, so it is reported.
func (s *S) Explicit() {
	s.mu.Lock() // want "s.mu.Lock\\(\\) is not followed by defer s.mu.Unlock\\(\\)"
	s.n++
	s.mu.Unlock() // want "s.mu.Unlock\\(\\) is not deferred"
}

// LeakOnError forgets to unlock on the early-return path.
func (s *S) LeakOnError(err error) error {
	s.mu.Lock() // want "s.mu.Lock\\(\\) is not followed by defer s.mu.Unlock\\(\\)"
	if err != nil {
		return err
	}
	s.mu.Unlock() // want "s.mu.Unlock\\(\\) is not deferred"
	return nil
}

// MaybeLeak locks on one path only and never unlocks.
func (s *S) MaybeLeak(c bool) {
	if c {
		s.mu.Lock() // want "s.mu.Lock\\(\\) is not followed by defer"
	}
	s.n++
}

// DoubleLock self-deadlocks.
func (s *S) DoubleLock() {
	s.mu.Lock()   // want "s.mu.Lock\\(\\) is not followed by defer"
	s.mu.Lock()   // want "s.mu.Lock\\(\\) is not followed by defer"
	s.mu.Unlock() // want "s.mu.Unlock\\(\\) is not deferred"
}

// UnlockWithoutLock releases a lock it never took.
func (s *S) UnlockWithoutLock() {
	s.mu.Unlock() // want "s.mu.Unlock\\(\\) is not deferred"
}

// Upgrade tries to write-lock while read-locked.
func (s *S) Upgrade() int {
	s.rw.RLock() // want "s.rw.RLock\\(\\) is not followed by defer s.rw.RUnlock\\(\\)"
	s.rw.Lock()
	defer s.rw.Unlock()
	return s.n
}

// RecursiveRLock deadlocks once a writer queues between the two.
func (s *S) RecursiveRLock() int {
	s.rw.RLock()
	defer s.rw.RUnlock()
	s.rw.RLock() // want "s.rw.RLock\\(\\) while s.rw is held"
	defer s.rw.RUnlock()
	return s.n
}

// WrongUnlock pairs RLock with Unlock.
func (s *S) WrongUnlock() int {
	s.rw.RLock() // want "s.rw.RLock\\(\\) is not followed by defer s.rw.RUnlock\\(\\)"
	n := s.n
	s.rw.Unlock() // want "s.rw.Unlock\\(\\) is not deferred"
	return n
}

// MismatchedDefer defers the write release of a read lock.
func (s *S) MismatchedDefer() int {
	s.rw.RLock() // want "s.rw.RLock\\(\\) is not followed by defer s.rw.RUnlock\\(\\)"
	defer s.rw.Unlock()
	return s.n
}

// OtherDefer defers the release of a different lock.
func (s *S) OtherDefer() {
	s.mu.Lock() // want "s.mu.Lock\\(\\) is not followed by defer s.mu.Unlock\\(\\)"
	defer s.order.Unlock()
	s.n++
}

// ConditionalWithDefer pairs the lock inside the branch: clean.
func (s *S) ConditionalWithDefer(c bool) {
	if c {
		s.mu.Lock()
		defer s.mu.Unlock()
	}
	s.n++
}

// Handoff intentionally returns with the lock held; the annotation is the
// escape hatch, so: clean.
func (s *S) Handoff() {
	//bayesvet:locksafe caller unlocks via (*S).Release
	s.mu.Lock()
}

// Dynamic locks a receiver the rule cannot resolve to one object: skipped.
func Dynamic(locks []sync.Mutex, i int) {
	locks[i].Lock()
	locks[i].Unlock()
}

// Literal bodies are functions of their own and get the same check.
func (s *S) Literal() {
	go func() {
		s.mu.Lock() // want "s.mu.Lock\\(\\) is not followed by defer"
		s.n++
	}()
}

// ---- nothing blocks while the lock is held ----

// SendUnderLock parks on a channel while holding the lock.
func (s *S) SendUnderLock(v int) {
	s.mu.Lock() // want "s.mu.Lock\\(\\) is not followed by defer"
	s.ch <- v
	s.mu.Unlock() // want "s.mu.Unlock\\(\\) is not deferred"
}

// SendUnderPair is the same send inside a deferred pair.
func (s *S) SendUnderPair(v int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ch <- v // want "channel send while s.mu is held"
}

// RecvUnderLock blocks on a receive with the deferred unlock still pending.
func (s *S) RecvUnderLock() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return <-s.ch // want "channel receive while s.mu is held"
}

// RangeUnderLock blocks until the channel closes.
func (s *S) RangeUnderLock() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for v := range s.ch { // want "range over a channel while s.mu is held"
		s.n += v
	}
}

// RangeSliceUnderLock ranges over a slice, which cannot block: clean.
func (s *S) RangeSliceUnderLock(xs []int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, v := range xs {
		s.n += v
	}
}

// NonBlockingSelect cannot block (default clause): clean.
func (s *S) NonBlockingSelect() {
	s.mu.Lock()
	defer s.mu.Unlock()
	select {
	case v := <-s.ch:
		s.n += v
	default:
	}
}

// BlockingSelectUnderLock has no default, so it parks.
func (s *S) BlockingSelectUnderLock() {
	s.mu.Lock()
	defer s.mu.Unlock()
	select { // want "select without default while s.mu is held"
	case v := <-s.ch:
		s.n += v
	}
}

// SelectBodyUnderLock cannot block in its comm clause but does in its body.
func (s *S) SelectBodyUnderLock() {
	s.mu.Lock()
	defer s.mu.Unlock()
	select {
	case v := <-s.ch:
		s.ch <- v // want "channel send while s.mu is held"
	default:
	}
}

// WaitUnderLock parks on the pool while holding the lock.
func (s *S) WaitUnderLock() {
	s.mu.Lock() // want "s.mu.Lock\\(\\) is not followed by defer"
	s.wg.Wait()
	s.mu.Unlock() // want "s.mu.Unlock\\(\\) is not deferred"
}

// WaitUnderPair is the same wait inside a deferred pair.
func (s *S) WaitUnderPair() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.wg.Wait() // want "WaitGroup.Wait while s.mu is held"
}

// NestedLock acquires a second lock under the first: inversion risk.
func (s *S) NestedLock() {
	s.mu.Lock()    // want "s.mu.Lock\\(\\) is not followed by defer"
	s.order.Lock() // want "s.order.Lock\\(\\) is not followed by defer"
	s.n++
	s.order.Unlock() // want "s.order.Unlock\\(\\) is not deferred"
	s.mu.Unlock()    // want "s.mu.Unlock\\(\\) is not deferred"
}

// NestedPair acquires a second pair under the first.
func (s *S) NestedPair(c bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if c {
		s.order.Lock() // want "s.order.Lock\\(\\) while s.mu is held"
		defer s.order.Unlock()
		s.n++
	}
}

// GoUnderLock launches a goroutine under the lock; the literal body runs
// elsewhere and is not scanned: clean.
func (s *S) GoUnderLock(v int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	go func() { s.ch <- v }()
}

// BufferedHandoff is a provably non-blocking send; the annotation is the
// escape hatch, so: clean.
func (s *S) BufferedHandoff(v int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ch <- v //bayesvet:locksafe ch is buffered and drained faster than filled
}

// ---- embedded locks ----

// Embedded carries an anonymous lock: every copy copies it and Lock/Unlock
// leak into the API.
type Embedded struct {
	sync.Mutex // want "embedding sync.Mutex"
	n          int
}

// PtrEmbedded embeds by pointer, which references rather than carries:
// clean.
type PtrEmbedded struct {
	*sync.Mutex
	n int
}

// Named holds the lock as a named field: clean.
type Named struct {
	mu sync.Mutex
	n  int
}

// Promoted locks through the embedded field: the pair is still checked.
func (e *Embedded) Promoted() {
	e.Lock() // want "e.Lock\\(\\) is not followed by defer e.Unlock\\(\\)"
	e.n++
	e.Unlock() // want "e.Unlock\\(\\) is not deferred"
}
