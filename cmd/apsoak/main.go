// Command apsoak is a randomized differential tester: it drives the AP
// Classifier, the rule-table oracle, header-space analysis, and the
// Veriflow-style trie with the same queries under continuous rule churn
// and periodic reconstructions, and fails loudly on any divergence.
//
//	apsoak -seconds 30 -seed 7
//
// Every behavior divergence in any engine is a bug in exactly one of four
// independent implementations — which is what makes the test sharp.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"time"

	"apclassifier"
	"apclassifier/internal/hsa"
	"apclassifier/internal/netgen"
	"apclassifier/internal/rule"
	"apclassifier/internal/trie"
)

func main() {
	seconds := flag.Int("seconds", 20, "how long to soak")
	seed := flag.Int64("seed", 1, "PRNG seed")
	scale := flag.Float64("scale", 0.01, "dataset scale")
	netName := flag.String("net", "internet2", "dataset: internet2, stanford or multitenant")
	flag.Parse()

	rng := rand.New(rand.NewSource(*seed))
	if *netName == "stanford" {
		*scale /= 3 // Stanford tables are three times Internet2's per unit scale
	}
	ds, err := netgen.Select(*netName, "", *seed, *scale)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	c, err := apclassifier.New(ds, apclassifier.Options{})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	var installed []struct {
		box int
		p   rule.Prefix
	}
	queries, churns, rebuilds := 0, 0, 0
	deadline := time.Now().Add(time.Duration(*seconds) * time.Second)
	for time.Now().Before(deadline) {
		// Churn: install or remove a random more-specific rule.
		switch rng.Intn(10) {
		case 0:
			box := rng.Intn(len(ds.Boxes))
			spec := &ds.Boxes[box]
			parent := spec.Fwd.Rules[rng.Intn(len(spec.Fwd.Rules))]
			if parent.Prefix.Length < 30 {
				np := rule.P(parent.Prefix.Value|rng.Uint32()&^(^uint32(0)<<uint(32-parent.Prefix.Length)),
					parent.Prefix.Length+2)
				dup := false
				for _, r := range spec.Fwd.Rules {
					if r.Prefix == np {
						dup = true
					}
				}
				if !dup {
					apply(c, apclassifier.RuleDelta{Op: apclassifier.OpAddFwdRule, Box: box, Rule: rule.FwdRule{Prefix: np, Port: parent.Port}})
					installed = append(installed, struct {
						box int
						p   rule.Prefix
					}{box, np})
					churns++
				}
			}
		case 1:
			if len(installed) > 0 {
				k := rng.Intn(len(installed))
				apply(c, apclassifier.RuleDelta{Op: apclassifier.OpRemoveFwdRule, Box: installed[k].box, Prefix: installed[k].p})
				installed = append(installed[:k], installed[k+1:]...)
				churns++
			}
		case 2:
			if rng.Intn(4) == 0 {
				c.Reconstruct(rng.Intn(2) == 0)
				rebuilds++
			}
		}

		// Rebuild the slow engines every so often (they are static).
		hn := hsa.Compile(ds)
		ts := trie.NewSim(ds)

		// Differential queries.
		for i := 0; i < 50; i++ {
			f := ds.RandomFields(rng)
			ing := rng.Intn(len(ds.Boxes))
			queries++

			oracle := ds.Simulate(ing, f)
			ap := c.Behavior(ing, ds.PacketFromFields(f))
			hs := hn.Reach(ing, ds.PacketFromFields(f))
			tr := ts.Behavior(ing, f)

			oDel := delivSet(oracle.Delivered)
			apDel := map[string]bool{}
			for _, d := range ap.Deliveries {
				apDel[d.Host] = true
			}
			if !sameSet(oDel, apDel) {
				die("AP Classifier", f, ing, oracle.Delivered, ap.String())
			}
			if !sameSet(oDel, delivSet(hs.Delivered)) {
				die("HSA", f, ing, oracle.Delivered, fmt.Sprint(hs.Delivered))
			}
			if !sameSet(oDel, delivSet(tr.Delivered)) {
				die("trie", f, ing, oracle.Delivered, fmt.Sprint(tr.Delivered))
			}
		}
	}
	fmt.Printf("soak PASS: %d queries, %d rule churns, %d reconstructions, 4 engines agreed throughout\n",
		queries, churns, rebuilds)
}

// apply applies one rule-delta batch; a refused batch ends the soak with
// exit status 1, like a divergence.
func apply(c *apclassifier.Classifier, deltas ...apclassifier.RuleDelta) {
	if err := c.ApplyRuleDeltas(deltas); err != nil {
		fmt.Fprintln(os.Stderr, "rule update failed:", err)
		os.Exit(1)
	}
}

func delivSet(hosts []string) map[string]bool {
	m := map[string]bool{}
	for _, h := range hosts {
		m[h] = true
	}
	return m
}

func sameSet(a, b map[string]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

func die(engine string, f rule.Fields, ing int, want []string, got string) {
	fmt.Fprintf(os.Stderr, "DIVERGENCE in %s: fields %+v ingress %d\n  oracle: %v\n  got: %s\n",
		engine, f, ing, want, got)
	os.Exit(1)
}
