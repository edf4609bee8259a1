package network

import (
	"strings"
	"testing"
)

func TestDOT(t *testing.T) {
	n, _, _ := fig1Net(t)
	dot := n.DOT("fig1")
	for _, want := range []string{"graph \"fig1\"", "b1", "b2", "h1", "h2", "--"} {
		if !strings.Contains(dot, want) {
			t.Fatalf("DOT missing %q:\n%s", want, dot)
		}
	}
	// Each link rendered once: exactly one "b0 -- b1" style edge.
	if got := strings.Count(dot, "b0 -- b1"); got != 1 {
		t.Fatalf("link rendered %d times", got)
	}

}
