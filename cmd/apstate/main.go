// Command apstate inspects, verifies, and produces AP Classifier
// checkpoint files — the operator's offline window into the durable
// state apserver writes.
//
//	apstate save -net internet2 -scale 0.01 -out ckpt.apc   # build + checkpoint
//	apstate inspect ckpt.apc                                # headers + section sizes (CRC-checked)
//	apstate verify ckpt.apc                                 # full decode + self-check
//	apstate dump ckpt.apc                                   # decoded state details
//
// inspect only CRC-checks and reads the cheap headers; verify performs
// the full restore (BDD rebuild, tree validation, membership
// cross-check on random packets) and is what the checkpoint-smoke CI
// step runs.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"apclassifier"
	"apclassifier/internal/checkpoint"
	"apclassifier/internal/netgen"
	"apclassifier/internal/network"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	var err error
	switch os.Args[1] {
	case "save":
		err = cmdSave(os.Args[2:])
	case "inspect":
		err = cmdInspect(os.Args[2:])
	case "verify":
		err = cmdVerify(os.Args[2:])
	case "dump":
		err = cmdDump(os.Args[2:])
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "apstate:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: apstate <command> [flags]

commands:
  save     build a classifier and write a checkpoint file
  inspect  print checkpoint headers and section sizes (CRC-checked)
  verify   fully decode a checkpoint and self-check the restored state
  dump     print decoded checkpoint state in detail`)
	os.Exit(2)
}

func cmdSave(args []string) error {
	fs := flag.NewFlagSet("save", flag.ExitOnError)
	netName := fs.String("net", "internet2", "dataset: internet2, stanford or multitenant")
	scale := fs.Float64("scale", 0.01, "rule-volume scale")
	seed := fs.Int64("seed", 1, "generator seed")
	out := fs.String("out", "ckpt.apc", "output checkpoint file")
	_ = fs.Parse(args) // ExitOnError: Parse never returns an error

	ds, err := netgen.Select(*netName, "", *seed, *scale)
	if err != nil {
		return err
	}
	start := time.Now()
	c, err := apclassifier.New(ds, apclassifier.Options{})
	if err != nil {
		return err
	}
	built := time.Since(start)

	start = time.Now()
	if err := checkpoint.WriteFile(*out, c.CheckpointSource()); err != nil {
		return err
	}
	fi, err := os.Stat(*out)
	if err != nil {
		return err
	}
	fmt.Printf("%s: built in %v (%d rules, %d predicates, %d atoms), saved %d bytes to %s in %v\n",
		ds.Name, built.Round(time.Millisecond), ds.NumRules(), c.NumPredicates(), c.NumAtoms(),
		fi.Size(), *out, time.Since(start).Round(time.Millisecond))
	return nil
}

func cmdInspect(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: apstate inspect <file>")
	}
	f, err := os.Open(args[0])
	if err != nil {
		return err
	}
	defer f.Close()
	info, err := checkpoint.Inspect(f)
	if err != nil {
		return err
	}
	fmt.Printf("format version: %d\n", info.FormatVersion)
	fmt.Printf("epoch:          %d\n", info.Epoch)
	fmt.Printf("method:         %s\n", info.Method)
	fmt.Printf("header vars:    %d bits\n", info.NumVars)
	fmt.Printf("predicates:     %d registered, %d live\n", info.NumPreds, info.NumLive)
	fmt.Printf("tree:           %d nodes, %d leaves (atoms)\n", info.NumTreeNodes, info.NumLeaves)
	fmt.Printf("dataset:        %s\n", info.DatasetName)
	names := make([]string, 0, len(info.SectionBytes))
	for name := range info.SectionBytes {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Println("sections (payload bytes, CRC ok):")
	for _, name := range names {
		fmt.Printf("  %-4s %d\n", name, info.SectionBytes[name])
	}
	return nil
}

func cmdVerify(args []string) error {
	fs := flag.NewFlagSet("verify", flag.ExitOnError)
	probes := fs.Int("probes", 500, "random packets for the membership self-check")
	seed := fs.Int64("seed", 1, "probe seed")
	_ = fs.Parse(args) // ExitOnError: Parse never returns an error
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: apstate verify [-probes n] [-seed s] <file>")
	}
	path := fs.Arg(0)

	start := time.Now()
	res, err := checkpoint.RestoreFile(path)
	if err != nil {
		return fmt.Errorf("decode: %w", err)
	}
	decoded := time.Since(start)
	if err := res.SelfCheck(*probes, *seed); err != nil {
		return fmt.Errorf("self-check: %w", err)
	}
	c, err := apclassifier.NewFromRestored(res)
	if err != nil {
		return fmt.Errorf("assemble: %w", err)
	}
	fmt.Printf("%s: OK — decoded in %v, %d predicates, %d atoms, epoch %d, %d-packet self-check passed\n",
		path, decoded.Round(time.Millisecond), c.NumPredicates(), c.NumAtoms(),
		c.Manager.Version(), *probes)
	return nil
}

func cmdDump(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: apstate dump <file>")
	}
	res, err := checkpoint.RestoreFile(args[0])
	if err != nil {
		return err
	}
	snap := res.Manager.Snapshot()
	fmt.Printf("epoch %d, method %s, %d live predicates, %d atoms, avg tree depth %.2f\n",
		res.Epoch, res.Method, snap.NumLive(), snap.Tree().NumLeaves(),
		snap.Tree().AverageDepth())
	ds := res.Dataset
	fmt.Printf("dataset %s: %d boxes, %d links, %d hosts, %d fwd rules, %d ACL rules\n",
		ds.Name, len(ds.Boxes), len(ds.Links), len(ds.Hosts), ds.NumRules(), ds.NumACLRules())
	fmt.Println("wiring (box: ingress ACL predicate, per-port fwd predicates):")
	w := network.WiringOf(snap)
	for b := 0; b < w.NumBoxes(); b++ {
		fwd := make([]int32, w.NumPorts(b))
		for p := range fwd {
			fwd[p] = w.Fwd(b, p)
		}
		fmt.Printf("  %-12s in=%-3d fwd=%v\n", ds.Boxes[b].Name, w.InACL(b), fwd)
	}
	return nil
}
