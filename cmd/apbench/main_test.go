package main

import "testing"

func TestParseRun(t *testing.T) {
	got, err := parseRun("fig9, optgap")
	if err != nil || len(got) != 2 || !got["fig9"] || !got["optgap"] {
		t.Fatalf("parseRun(fig9, optgap) = %v, %v", got, err)
	}
	if got, err := parseRun("all"); err != nil || !got["all"] {
		t.Fatalf("parseRun(all) = %v, %v", got, err)
	}
	// The ids retired with their runners, a misspelling, and the empty id
	// must all be rejected, alone or beside a valid id.
	for _, spec := range []string{"batch", "cluster", "churn", "ruleupdate", "verify", "fig12par", "fig14par", "flat", "fig99", "", "fig9,churn", "all,verify"} {
		if got, err := parseRun(spec); err == nil {
			t.Errorf("parseRun(%q) = %v, want an error", spec, got)
		}
	}
}
