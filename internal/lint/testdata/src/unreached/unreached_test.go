package unreached

import "testing"

func TestOnlyTests(t *testing.T) {
	if onlyTests() != 1 {
		t.Fatal("onlyTests")
	}
}
