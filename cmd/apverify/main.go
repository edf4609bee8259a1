// Command apverify runs network-wide invariant checks over a dataset:
// exact reachability sets, loop freedom, blackholes, waypoint enforcement,
// pairwise isolation, and the box connectivity matrix.
//
// The first argument selects a subcommand; dataset flags follow it.
//
// Usage examples:
//
//	apverify loops -net internet2 -scale 0.02
//	apverify loops -net fattree -preset large
//	apverify reach -net fattree -preset small -from p00-edge00 -host p01e00h0
//	apverify reach -net fattree -preset small -all
//	apverify blackholes -net internet2 -from seattle
//	apverify waypoint -net stanford -scale 0.01 -from zone00 -host h6_14 -via bbra
//	apverify isolated -net internet2 -from seattle -to atlanta
//	apverify matrix -net internet2
//	apverify reach -load snapshot.txt -from seattle -host h2_9
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"apclassifier"
	"apclassifier/internal/netgen"
	"apclassifier/internal/verify"
)

const usage = `usage: apverify <command> [flags]

commands:
  reach       exact packet set reaching -host from -from (or -all hosts × ingresses)
  loops       enumerate every (ingress, atom) pair that loops
  blackholes  packet set dropped with no route from -from (or -all ingresses)
  waypoint    packets reaching -host from -from that bypass -via
  isolated    report whether -to is unreachable from -from
  matrix      box connectivity matrix (atoms from row-ingress traversing column-box)

dataset flags (shared): -net {internet2,stanford,multitenant,fattree}
  -scale F -seed N (generated nets), -preset {small,mid,large} -inject-loop
  (fattree), -load FILE (snapshot instead of generating)
`

func main() {
	if len(os.Args) < 2 {
		fmt.Fprint(os.Stderr, usage)
		os.Exit(2)
	}
	cmd := os.Args[1]
	fs := flag.NewFlagSet("apverify "+cmd, flag.ExitOnError)
	netName := fs.String("net", "internet2", "dataset: internet2, stanford, multitenant or fattree")
	scale := fs.Float64("scale", 0.02, "rule-volume scale (internet2/stanford)")
	seed := fs.Int64("seed", 1, "generator seed (internet2/stanford/multitenant)")
	preset := fs.String("preset", "small", "fat-tree preset: small, mid or large")
	injectLoop := fs.Bool("inject-loop", false, "fattree: inject a routing loop on 10.254.0.0/16")
	load := fs.String("load", "", "load a dataset snapshot file instead of generating")
	from := fs.String("from", "", "ingress box name")
	host := fs.String("host", "", "destination host name")
	via := fs.String("via", "", "required waypoint box name")
	to := fs.String("to", "", "target box name (isolated)")
	all := fs.Bool("all", false, "sweep every ingress (reach: every ingress × host pair)")
	switch cmd {
	case "reach", "loops", "blackholes", "waypoint", "isolated", "matrix":
	case "-h", "-help", "--help", "help":
		fmt.Print(usage)
		return
	default:
		fmt.Fprintf(os.Stderr, "apverify: unknown command %q\n%s", cmd, usage)
		os.Exit(2)
	}
	if err := fs.Parse(os.Args[2:]); err != nil {
		os.Exit(2)
	}

	var ds *netgen.Dataset
	var err error
	if *load != "" || *netName != "fattree" {
		ds, err = netgen.Select(*netName, *load, *seed, *scale)
	} else {
		var cfg netgen.FatTreeConfig
		cfg, err = netgen.FatTreePreset(*preset)
		if err == nil {
			cfg.InjectLoop = *injectLoop
			ds = netgen.FatTree(cfg)
		}
	}
	if err != nil {
		fatal(err)
	}

	buildStart := time.Now()
	c, err := apclassifier.New(ds, apclassifier.Options{})
	if err != nil {
		fatal(err)
	}
	a := verify.New(c)
	fmt.Printf("%s: %d boxes, %d rules, %d predicates, %d atoms (compiled in %v)\n",
		ds.Name, len(ds.Boxes), ds.NumRules(), c.NumPredicates(), a.NumAtoms(),
		time.Since(buildStart).Round(time.Millisecond))

	boxID := func(name string) int {
		id := c.Net.BoxByName(name)
		if id < 0 {
			fatal(fmt.Errorf("no box named %q", name))
		}
		return id
	}
	need := func(val *string, flagName string) string {
		if *val == "" {
			fatal(fmt.Errorf("%s requires -%s", cmd, flagName))
		}
		return *val
	}

	start := time.Now()
	switch cmd {
	case "reach":
		if *all {
			pairs, nonEmpty := 0, 0
			for ingress := range c.Net.Boxes {
				for _, h := range ds.Hosts {
					pairs++
					if !a.ReachSet(ingress, h.Name).Empty() {
						nonEmpty++
					}
				}
			}
			fmt.Printf("all-pairs reachability: %d ingress × host pairs, %d non-empty, %v\n",
				pairs, nonEmpty, time.Since(start).Round(time.Millisecond))
			break
		}
		f, h := need(from, "from"), need(host, "host")
		set := a.ReachSet(boxID(f), h)
		fmt.Printf("reach(%s -> %s): %s\n", f, h, a.Describe(set))
	case "blackholes":
		if *all {
			atoms := 0
			for ingress := range c.Net.Boxes {
				atoms += a.Blackholes(ingress).NumAtoms()
			}
			fmt.Printf("blackholes: %d (ingress, atom) pairs across %d ingresses, %v\n",
				atoms, len(c.Net.Boxes), time.Since(start).Round(time.Millisecond))
			break
		}
		f := need(from, "from")
		set := a.Blackholes(boxID(f))
		fmt.Printf("blackholes(%s): %s\n", f, a.Describe(set))
	case "waypoint":
		f, h, v := need(from, "from"), need(host, "host"), need(via, "via")
		set := a.WaypointViolations(boxID(f), h, boxID(v))
		status := "HOLDS"
		if !set.Empty() {
			status = "VIOLATED"
		}
		fmt.Printf("waypoint %s for %s->%s: %s (%s)\n", v, f, h, status, a.Describe(set))
	case "isolated":
		f, tn := need(from, "from"), need(to, "to")
		fromID, toID := boxID(f), boxID(tn)
		if a.Isolated(fromID, toID) {
			fmt.Printf("isolation %s -x- %s: HOLDS\n", f, tn)
		} else {
			fmt.Printf("isolation %s -x- %s: VIOLATED, e.g. %s\n", f, tn, a.Describe(a.CanReach(fromID, toID)))
		}
	case "loops":
		ls := a.Loops()
		elapsed := time.Since(start).Round(time.Millisecond)
		if len(ls) == 0 {
			fmt.Printf("loop freedom: HOLDS for every packet from every ingress (%v)\n", elapsed)
		} else {
			fmt.Printf("loop freedom: VIOLATED by %d (ingress, atom) pairs (%v)\n", len(ls), elapsed)
			for i, l := range ls {
				if i == 5 {
					fmt.Printf("  ... and %d more\n", len(ls)-5)
					break
				}
				fmt.Printf("  atom %d from %s\n", l.AtomID, c.Net.Boxes[l.Ingress].Name)
			}
		}
	case "matrix":
		m := a.ReachabilityMatrix()
		fmt.Printf("(computed in %v)\n", time.Since(start).Round(time.Millisecond))
		if len(m) > 40 {
			// Too wide to print: summarize row totals instead.
			for i, row := range m {
				reach := 0
				for j, v := range row {
					if j != i && v > 0 {
						reach++
					}
				}
				if i < 10 || reach != len(m)-1 {
					fmt.Printf("%14s reaches %d/%d boxes\n", c.Net.Boxes[i].Name, reach, len(m)-1)
				}
			}
			fmt.Printf("(%d boxes total; fully-connected rows beyond the first 10 elided)\n", len(m))
			break
		}
		fmt.Printf("%14s", "")
		for _, b := range c.Net.Boxes {
			fmt.Printf("%7.6s", b.Name)
		}
		fmt.Println()
		for i, row := range m {
			fmt.Printf("%14s", c.Net.Boxes[i].Name)
			for _, v := range row {
				fmt.Printf("%7d", v)
			}
			fmt.Println()
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "apverify:", err)
	os.Exit(1)
}
