// Package staleignore exercises directive hygiene: a directive that
// still suppresses a finding stays silent, one covering clean code is
// reported stale, one naming a check that does not exist is always
// reported, and a guard naming a missing mutex field is reported (and
// causes the lockguard violation it was supposed to excuse).
package staleignore

import (
	"os"
	"sync"
)

func used() {
	//lint:ignore errdrop fixture keeps this directive in use
	os.Remove("/tmp/x")
}

func stale() {
	//lint:ignore errdrop nothing below can drop an error anymore
	_ = os.Getenv("HOME")
}

func typo() {
	//lint:ignore errdorp misspelled check name never suppresses
	_ = os.Getenv("PATH")
}

type counters struct {
	mu sync.Mutex
	//lint:guard mux
	n int
}

func (c *counters) bump() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n++
}

// Keep every function reached so the unreached check stays out of the
// directive-hygiene goldens.
var _ = []any{used, stale, typo, (*counters).bump}
