// Command apclassifier is a CLI for packet behavior identification: it
// generates a dataset, compiles it, and answers behavior queries for
// packet headers.
//
// Usage examples:
//
//	apclassifier -net internet2 -scale 0.05 -stats
//	apclassifier -net internet2 -dst 10.1.2.3 -ingress seattle
//	apclassifier -net stanford -src 171.66.1.2 -dst 171.64.9.9 -dport 80 -proto 6 -ingress zone03
//	apclassifier -net internet2 -random 5
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"time"

	"apclassifier"
	"apclassifier/internal/netgen"
	"apclassifier/internal/rule"
)

func main() {
	netName := flag.String("net", "internet2", "dataset: internet2, stanford or multitenant")
	scale := flag.Float64("scale", 0.05, "rule-volume scale relative to the paper's dataset")
	seed := flag.Int64("seed", 1, "generator seed")
	load := flag.String("load", "", "load a dataset snapshot file instead of generating")
	dump := flag.String("dump", "", "write the dataset snapshot to this file and exit")
	stats := flag.Bool("stats", false, "print dataset/classifier statistics and exit")
	dot := flag.Bool("dot", false, "print the topology in Graphviz format and exit")
	ingress := flag.String("ingress", "", "ingress box name (default: first box)")
	src := flag.String("src", "", "source IPv4 address")
	dst := flag.String("dst", "", "destination IPv4 address")
	sport := flag.Uint("sport", 0, "source port")
	dport := flag.Uint("dport", 0, "destination port")
	proto := flag.Uint("proto", 6, "IP protocol number")
	randomN := flag.Int("random", 0, "instead of one query, run N random queries and summarize")
	flag.Parse()

	ds, err := netgen.Select(*netName, *load, *seed, *scale)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		if *load != "" {
			os.Exit(1) // an unreadable snapshot, not a usage error
		}
		os.Exit(2)
	}

	if *dump != "" {
		f, err := os.Create(*dump)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := ds.Write(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil { // written data may be lost on close failure
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s: %d boxes, %d rules, %d ACL rules\n", *dump, len(ds.Boxes), ds.NumRules(), ds.NumACLRules())
		return
	}

	start := time.Now()
	c, err := apclassifier.New(ds, apclassifier.Options{})
	if err != nil {
		fmt.Fprintln(os.Stderr, "compile error:", err)
		os.Exit(1)
	}
	fmt.Printf("%s: %d boxes, %d rules, %d ACL rules -> %d predicates, %d atoms, avg tree depth %.1f (compiled in %v)\n",
		ds.Name, len(ds.Boxes), ds.NumRules(), ds.NumACLRules(),
		c.NumPredicates(), c.NumAtoms(), c.AverageDepth(), time.Since(start).Round(time.Millisecond))

	if *stats {
		// MemBytes counts the node store's slot capacity, the slots GC
		// freed included, and the tree; LiveMemBytes only the reachable
		// BDD nodes and the operation cache.
		fmt.Printf("memory estimate: %.2f MB BDD+tree incl. freed slots, %.2f MB live BDD\n",
			float64(c.MemBytes())/1e6, float64(c.Manager.DD().LiveMemBytes())/1e6)
		return
	}
	if *dot {
		fmt.Print(c.Net.DOT(ds.Name))
		return
	}

	inBox := 0
	if *ingress != "" {
		inBox = c.Net.BoxByName(*ingress)
		if inBox < 0 {
			fmt.Fprintf(os.Stderr, "no box named %q; boxes:", *ingress)
			for _, b := range c.Net.Boxes {
				fmt.Fprintf(os.Stderr, " %s", b.Name)
			}
			fmt.Fprintln(os.Stderr)
			os.Exit(2)
		}
	}

	if *randomN > 0 {
		rng := rand.New(rand.NewSource(*seed))
		for i := 0; i < *randomN; i++ {
			f := ds.RandomFields(rng)
			ing := rng.Intn(len(ds.Boxes))
			query(c, ds, ing, f)
		}
		return
	}

	f := rule.Fields{SrcPort: uint16(*sport), DstPort: uint16(*dport), Proto: uint8(*proto)}
	if *src != "" {
		f.Src = parseIPv4(*src)
	}
	if *dst == "" {
		fmt.Fprintln(os.Stderr, "need -dst (or -random N / -stats)")
		os.Exit(2)
	}
	f.Dst = parseIPv4(*dst)
	query(c, ds, inBox, f)
}

func query(c *apclassifier.Classifier, ds *netgen.Dataset, ingress int, f rule.Fields) {
	pkt := ds.PacketFromFields(f)
	leaf := c.Classify(pkt)
	b := c.Behavior(ingress, pkt)
	fmt.Printf("\npacket %s entering %s\n", ds.Layout.String(pkt), c.Net.Boxes[ingress].Name)
	fmt.Printf("  atomic predicate: leaf #%d at depth %d\n", leaf.AtomID, leaf.Depth)
	if len(b.Edges) > 0 {
		fmt.Print("  path: ", c.Net.Boxes[ingress].Name)
		for _, e := range b.Edges {
			switch {
			case e.To.Host != "":
				fmt.Printf(" -> host %s", e.To.Host)
			default:
				fmt.Printf(" -> %s", c.Net.Boxes[e.To.Box].Name)
			}
		}
		fmt.Println()
	}
	for _, d := range b.Deliveries {
		fmt.Printf("  delivered to %s via %s port %d\n", d.Host, c.Net.Boxes[d.Box].Name, d.Port)
	}
	for _, d := range b.Drops {
		fmt.Printf("  dropped at %s: %s\n", c.Net.Boxes[d.Box].Name, d.Reason)
	}
}

func parseIPv4(s string) uint32 {
	parts := strings.Split(s, ".")
	if len(parts) != 4 {
		fmt.Fprintf(os.Stderr, "bad IPv4 address %q\n", s)
		os.Exit(2)
	}
	var v uint32
	for _, p := range parts {
		n, err := strconv.Atoi(p)
		if err != nil || n < 0 || n > 255 {
			fmt.Fprintf(os.Stderr, "bad IPv4 address %q\n", s)
			os.Exit(2)
		}
		v = v<<8 | uint32(n)
	}
	return v
}
