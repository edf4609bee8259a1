package verify

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"apclassifier"
	"apclassifier/internal/netgen"
	"apclassifier/internal/network"
	"apclassifier/internal/predicate"
	"apclassifier/internal/rule"
)

// naive answers the analyzer's queries the way the analyzer itself used to:
// one Walker.Behavior per atom, kept whole, and a predicate scanned
// over the behaviors per query. It shares the pinned epoch with the
// analyzer under test and nothing of the row, which makes it the oracle
// the row's indexes are held against.
type naive struct {
	a    *Analyzer
	w    *network.Walker
	from int
	behs map[int32]*network.Behavior // of ingress from, by atom
}

func (o *naive) ingress(in int) {
	if o.behs != nil && o.from == in {
		return
	}
	o.from, o.behs = in, map[int32]*network.Behavior{}
	o.a.view.Each(func(atom int32) bool {
		o.behs[atom] = o.w.Behavior(o.a.snap, in, nil, o.a.view.Leaf(atom)).Clone()
		return true
	})
}

func (o *naive) scan(in int, pred func(*network.Behavior) bool) predicate.AtomSet {
	o.ingress(in)
	var b predicate.AtomSetBuilder
	o.a.view.Each(func(atom int32) bool {
		if pred(o.behs[atom]) {
			b.Add(atom)
		}
		return true
	})
	return b.Set()
}

func dropped(b *network.Behavior, why network.DropReason) bool {
	for _, d := range b.Drops {
		if d.Reason == why {
			return true
		}
	}
	return false
}

// churned applies a batch of semantics-changing deltas — child prefixes
// re-homed to another port, a few parents removed outright — so the row is
// also checked on a delta-built epoch rather than a freshly compiled one.
func churned(t *testing.T, ds *netgen.Dataset) *apclassifier.Classifier {
	c := compile(t, ds)
	rng := rand.New(rand.NewSource(64))
	var deltas []apclassifier.RuleDelta
	for i := 0; i < 40; i++ {
		box := rng.Intn(len(ds.Boxes))
		rules := ds.Boxes[box].Fwd.Rules
		parent := rules[rng.Intn(len(rules))]
		if i%8 == 7 {
			deltas = append(deltas, apclassifier.RuleDelta{Op: apclassifier.OpRemoveFwdRule, Box: box, Prefix: parent.Prefix})
			continue
		}
		if parent.Prefix.Length >= 31 {
			continue
		}
		child := rule.P(parent.Prefix.Value, parent.Prefix.Length+1)
		port := (parent.Port + 1) % ds.Boxes[box].NumPorts
		deltas = append(deltas, apclassifier.RuleDelta{Op: apclassifier.OpAddFwdRule, Box: box, Rule: rule.FwdRule{Prefix: child, Port: port}})
	}
	if err := c.ApplyRuleDeltas(deltas); err != nil {
		t.Fatal(err)
	}
	return c
}

type rowNet struct {
	name string
	ds   *netgen.Dataset
	c    *apclassifier.Classifier
}

func rowNets(t *testing.T) []rowNet {
	loopy := netgen.FatTreeSmall
	loopy.InjectLoop = true
	stanford := netgen.StanfordLike(netgen.Config{Seed: 64, RuleScale: 0.003})
	if stanford.NumACLs() == 0 {
		t.Fatal("the Stanford-like case has no ACLs")
	}
	internet2 := netgen.Internet2Like(netgen.Config{Seed: 64, RuleScale: 0.01})
	nets := []rowNet{
		{"fattree-small", netgen.FatTree(netgen.FatTreeSmall), nil},
		{"fattree-mid", netgen.FatTree(netgen.FatTreeMid), nil},
		{"multitenant", netgen.MultiTenantLike(3, 2, 64), nil},
		{"stanford-acl", stanford, nil},
		{"injected-loop", netgen.FatTree(loopy), nil},
		{"after-churn", internet2, churned(t, internet2)},
	}
	for i := range nets {
		if nets[i].c == nil {
			nets[i].c = compile(t, nets[i].ds)
		}
	}
	return nets
}

// TestRowMatchesNaiveScan holds every public query, on every ingress, to
// the per-atom scan it replaced: equal atom sets, a bit-equal matrix and
// an identical loop list, order included.
func TestRowMatchesNaiveScan(t *testing.T) {
	for _, tc := range rowNets(t) {
		t.Run(tc.name, func(t *testing.T) {
			ds := tc.ds
			a := New(tc.c)
			o := &naive{a: a, w: a.newWalker()}
			n := a.NumBoxes()
			hosts := []string{"", "no-such-host"}
			for _, h := range ds.Hosts {
				hosts = append(hosts, h.Name)
			}
			// Every waypoint on the small nets; a spread of them on fat-tree
			// mid, where ingress × host × waypoint is in the millions.
			waypoints := []int{0, n / 3, n / 2, n - 1}
			if n <= 32 {
				waypoints = waypoints[:0]
				for j := 0; j < n; j++ {
					waypoints = append(waypoints, j)
				}
			}
			equal := func(what string, got PacketSet, want predicate.AtomSet) {
				t.Helper()
				if !got.Atoms().Equal(want) {
					t.Fatalf("%s: row %v, naive scan %v", what, got.Atoms(), want)
				}
			}

			var wantLoops []Loop
			wantMatrix := make([][]int, n)
			for in := 0; in < n; in++ {
				for _, h := range hosts {
					reach := o.scan(in, func(b *network.Behavior) bool { return b.Delivered(h) })
					equal("ReachSet "+a.BoxName(in)+" → "+h, a.ReachSet(in, h), reach)
					for _, wp := range waypoints {
						equal("WaypointViolations "+a.BoxName(in)+" → "+h+" via "+a.BoxName(wp),
							a.WaypointViolations(in, h, wp),
							o.scan(in, func(b *network.Behavior) bool { return b.Delivered(h) && !b.Traverses(wp) }))
					}
				}
				looping := o.scan(in, func(b *network.Behavior) bool { return dropped(b, network.DropLoop) })
				equal("LoopSet "+a.BoxName(in), a.LoopSet(in), looping)
				equal("Blackholes "+a.BoxName(in), a.Blackholes(in),
					o.scan(in, func(b *network.Behavior) bool { return dropped(b, network.DropNoRoute) }))
				looping.Each(func(atom int32) bool {
					wantLoops = append(wantLoops, Loop{in, atom, a.snap.View().AnySat(a.view.BDD(atom))})
					return true
				})
				wantMatrix[in] = make([]int, n)
				for to := 0; to < n; to++ {
					can := o.scan(in, func(b *network.Behavior) bool { return b.Traverses(to) })
					equal("CanReach "+a.BoxName(in)+" → "+a.BoxName(to), a.CanReach(in, to), can)
					if got := a.Isolated(in, to); got != can.Empty() {
						t.Fatalf("Isolated(%s, %s) = %v, naive scan reaches %v", a.BoxName(in), a.BoxName(to), got, can)
					}
					wantMatrix[in][to] = can.Len()
				}
			}
			if got := a.ReachabilityMatrix(); !reflect.DeepEqual(got, wantMatrix) {
				t.Fatalf("ReachabilityMatrix differs from the naive scan:\n got %v\nwant %v", got, wantMatrix)
			}
			if got := a.Loops(); !reflect.DeepEqual(got, wantLoops) {
				t.Fatalf("Loops differs from the naive scan:\n got %v\nwant %v", got, wantLoops)
			}
			if tc.name == "injected-loop" && len(wantLoops) == 0 {
				t.Fatal("the injected loop was not found")
			}
		})
	}
}

// TestRowsUnderConcurrentQueries races eight goroutines of mixed queries,
// on overlapping ingresses, against a Loops sweep over the same analyzer:
// every row is built exactly once whoever gets there first, and every
// answer equals a serially queried analyzer's.
func TestRowsUnderConcurrentQueries(t *testing.T) {
	loopy := netgen.FatTreeSmall
	loopy.InjectLoop = true
	ds := netgen.FatTree(loopy)
	c := compile(t, ds)
	serial, shared := New(c), New(c)
	n := serial.NumBoxes()
	wantLoops := serial.Loops()
	wantMatrix := serial.ReachabilityMatrix()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if got := shared.Loops(); !reflect.DeepEqual(got, wantLoops) {
			t.Errorf("concurrent Loops() = %v, want %v", got, wantLoops)
		}
	}()
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			same := func(what string, got, want PacketSet) {
				if !got.Atoms().Equal(want.Atoms()) {
					t.Errorf("goroutine %d: %s = %v, serial %v", g, what, got.Atoms(), want.Atoms())
				}
			}
			for i := 0; i < 200; i++ {
				// One pass in the sweep's order (odd goroutines against it,
				// so they meet it mid-range), then random ingresses.
				in := i
				switch {
				case i >= n:
					in = rng.Intn(n)
				case g%2 == 1:
					in = n - 1 - i
				}
				h, to := ds.Hosts[rng.Intn(len(ds.Hosts))].Name, rng.Intn(n)
				switch rng.Intn(6) {
				case 0:
					same("ReachSet", shared.ReachSet(in, h), serial.ReachSet(in, h))
				case 1:
					same("LoopSet", shared.LoopSet(in), serial.LoopSet(in))
				case 2:
					same("Blackholes", shared.Blackholes(in), serial.Blackholes(in))
				case 3:
					same("CanReach", shared.CanReach(in, to), serial.CanReach(in, to))
				case 4:
					same("WaypointViolations", shared.WaypointViolations(in, h, to), serial.WaypointViolations(in, h, to))
				case 5:
					if got, want := shared.Isolated(in, to), serial.Isolated(in, to); got != want {
						t.Errorf("goroutine %d: Isolated(%d, %d) = %v, serial %v", g, in, to, got, want)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if got := shared.ReachabilityMatrix(); !reflect.DeepEqual(got, wantMatrix) {
		t.Errorf("matrix after concurrent queries differs from the serial analyzer's")
	}
}

// TestRowMetricsFlushOncePerRow pins the verifier's metrics to the row:
// one build, NumAtoms walks and one histogram sample per ingress, however
// many queries that ingress then answers.
func TestRowMetricsFlushOncePerRow(t *testing.T) {
	ds := netgen.FatTree(netgen.FatTreeSmall)
	a := New(compile(t, ds))
	rows, walks, timed := mRowsBuilt.Value(), mRowWalks.Value(), mRowBuild.Count()
	for _, h := range ds.Hosts {
		a.ReachSet(3, h.Name)
	}
	a.Blackholes(3)
	a.CanReach(3, 0)
	if got := mRowsBuilt.Value() - rows; got != 1 {
		t.Fatalf("%d rows built for one ingress, want 1", got)
	}
	if got := mRowWalks.Value() - walks; got != uint64(a.NumAtoms()) {
		t.Fatalf("%d walks for one row, want one per atom (%d)", got, a.NumAtoms())
	}
	a.Loops()
	if got := mRowsBuilt.Value() - rows; got != uint64(a.NumBoxes()) {
		t.Fatalf("%d rows built after a sweep, want one per box (%d)", got, a.NumBoxes())
	}
	if got := mRowBuild.Count() - timed; got != uint64(a.NumBoxes()) {
		t.Fatalf("%d build-time samples, want one per row (%d)", got, a.NumBoxes())
	}
}
