package rule

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// The slice scans the prefix index replaced, kept as the oracle the
// indexed operations are held to.

func scanCovering(rules []FwdRule, ports []int, p Prefix) []int {
	for _, r := range rules {
		if r.Prefix.Contains(p) {
			ports = addConePort(ports, r.Port)
		}
	}
	return ports
}

func scanRemove(rules []FwdRule, p Prefix) (out []FwdRule, ports []int) {
	for _, r := range rules {
		if r.Prefix == p {
			ports = addConePort(ports, r.Port)
			continue
		}
		out = append(out, r)
	}
	return out, ports
}

// scanTrie is WalkTrie by scans over each table's rules, appending its
// events as trieEvents records them: a node splits while some table has a
// rule strictly inside it, and a leaf's winner in a table is the first
// added of its longest rules containing the leaf.
func scanTrie(tables [][]FwdRule, g Prefix, ev []int) []int {
	inside := func(r FwdRule) bool { return g.Contains(r.Prefix) && r.Prefix.Length > g.Length }
	if !slices.ContainsFunc(tables, func(rules []FwdRule) bool { return slices.ContainsFunc(rules, inside) }) {
		for _, rules := range tables {
			winner, longest := Drop, -1
			for _, r := range rules {
				if r.Prefix.Contains(g) && r.Prefix.Length > longest {
					winner, longest = r.Port, r.Prefix.Length
				}
			}
			ev = append(ev, winner)
		}
		return ev
	}
	ev = scanTrie(tables, P(g.Value, g.Length+1), ev)
	ev = scanTrie(tables, P(g.Value|1<<(31-g.Length), g.Length+1), ev)
	return append(ev, -2-g.Length)
}

// trieEvents records a WalkTrie of the tables over g: a leaf as its
// winners, one per table, Drop included, and a split as -2 minus its
// length.
func trieEvents(tables []*FwdTable, g Prefix) []int {
	var ev []int
	WalkTrie(tables, g, func(winners []int) { ev = append(ev, winners...) }, func(length int) { ev = append(ev, -2-length) })
	return ev
}

// checkIndex requires the index to be a permutation of the rule positions
// in (value, length, position) order, and CheckIndex to agree.
func checkIndex(t *testing.T, tbl *FwdTable) {
	t.Helper()
	if err := tbl.CheckIndex(); err != nil {
		t.Fatal(err)
	}
	if len(tbl.idx) != len(tbl.Rules) {
		t.Fatalf("index holds %d entries for %d rules", len(tbl.idx), len(tbl.Rules))
	}
	want := make([]int32, len(tbl.Rules))
	for i := range want {
		want[i] = int32(i)
	}
	sort.SliceStable(want, func(a, b int) bool {
		return comparePrefix(tbl.Rules[want[a]].Prefix, tbl.Rules[want[b]].Prefix) < 0
	})
	if !slices.Equal(tbl.idx, want) {
		t.Fatalf("index %v, want %v", tbl.idx, want)
	}
}

// randomPrefix draws from a small value space so that nesting, siblings
// and exact duplicates are common, with /0 and /32 among the lengths.
func randomPrefix(rng *rand.Rand) Prefix {
	v := rng.Uint32() & 0xF0F00000
	if rng.Intn(8) == 0 {
		v |= rng.Uint32() & 0xF
	}
	switch rng.Intn(10) {
	case 0:
		return P(v, 0)
	case 1:
		return P(v, 32)
	}
	return P(v, rng.Intn(33))
}

// TestIndexMatchesScans drives random tables through random edits — plain
// and cone adds and removes, duplicates, /0, /32 and Drop rules — and
// holds every indexed answer to the slice scan: the rule slice itself,
// both cones, the trie walk over a region and the index invariant after
// every edit. A table never indexed must stay so through
// plain adds and removes: those are what a generated dataset and a
// simulator's replica see, and they must cost what a slice costs.
func TestIndexMatchesScans(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 60; trial++ {
		var tbl FwdTable
		for i := rng.Intn(40); i > 0; i-- {
			tbl.Add(FwdRule{randomPrefix(rng), rng.Intn(5) - 1})
		}
		if trial%3 != 0 {
			tbl.Index() // else the first cone edit builds it
		}
		shadow := slices.Clone(tbl.Rules)
		for step := 0; step < 60; step++ {
			var victim Prefix
			if len(shadow) > 0 && rng.Intn(3) == 0 {
				victim = shadow[rng.Intn(len(shadow))].Prefix
			} else {
				victim = randomPrefix(rng)
			}
			r := FwdRule{randomPrefix(rng), rng.Intn(5) - 1}
			switch rng.Intn(4) {
			case 0:
				want := addConePort(scanCovering(shadow, nil, r.Prefix), r.Port)
				shadow = append(shadow, r)
				if got := tbl.AddWithCone(r); got.Region != r.Prefix || !slices.Equal(got.Ports, want) {
					t.Fatalf("trial %d step %d: AddWithCone(%v) = %v, want ports %v", trial, step, r, got, want)
				}
			case 1:
				shadow = append(shadow, r)
				tbl.Add(r)
			case 2:
				var ports []int
				shadow, ports = scanRemove(shadow, victim)
				removed := ports != nil || len(shadow) < len(tbl.Rules)
				if removed {
					ports = scanCovering(shadow, ports, victim)
				}
				got, ok := tbl.RemoveWithCone(victim)
				if ok != removed || (ok && !slices.Equal(got.Ports, ports)) {
					t.Fatalf("trial %d step %d: RemoveWithCone(%v) = %v %v, want %v %v", trial, step, victim, got, ok, ports, removed)
				}
			case 3:
				n := len(shadow)
				shadow, _ = scanRemove(shadow, victim)
				wasIndexed := tbl.idx != nil
				if got := tbl.Remove(victim); got != (len(shadow) < n) {
					t.Fatalf("trial %d step %d: Remove(%v) = %v", trial, step, victim, got)
				}
				if !wasIndexed && tbl.idx != nil {
					t.Fatalf("trial %d step %d: Remove indexed a table that had no index", trial, step)
				}
			}
			if !slices.Equal(tbl.Rules, shadow) {
				t.Fatalf("trial %d step %d: rules %v, want %v", trial, step, tbl.Rules, shadow)
			}
			if tbl.idx == nil {
				continue
			}
			checkIndex(t, &tbl)
			g := []Prefix{victim, randomPrefix(rng), P(0, 0)}[rng.Intn(3)]
			if got, want := trieEvents([]*FwdTable{&tbl}, g), scanTrie([][]FwdRule{shadow}, g, nil); !slices.Equal(got, want) {
				t.Fatalf("trial %d step %d: trie walk of %v = %v, want %v", trial, step, g, got, want)
			}
		}
	}
}

// TestCloneIsIndependent holds a Clone to its promise: edits to the
// original, which move index entries in place, leave the copy's rules,
// index and trie walks as they were.
func TestCloneIsIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	var tbl FwdTable
	for i := 0; i < 200; i++ {
		tbl.Add(FwdRule{randomPrefix(rng), rng.Intn(4)})
	}
	tbl.Index()
	cp := tbl.Clone()
	rules := slices.Clone(tbl.Rules)
	for i := 0; i < 100; i++ {
		tbl.AddWithCone(FwdRule{randomPrefix(rng), rng.Intn(4)})
		tbl.RemoveWithCone(tbl.Rules[rng.Intn(len(tbl.Rules))].Prefix)
	}
	if !slices.Equal(cp.Rules, rules) {
		t.Fatal("the clone's rules changed with the original's")
	}
	checkIndex(t, &cp)
	for k := 0; k < 200; k++ {
		g := randomPrefix(rng)
		if got, want := trieEvents([]*FwdTable{&cp}, g), scanTrie([][]FwdRule{rules}, g, nil); !slices.Equal(got, want) {
			t.Fatalf("clone trie walk of %v = %v, want %v", g, got, want)
		}
	}
}

// TestJointTrieMatchesScan walks several random tables at once — some
// empty, some all Drop, with /0 routes and duplicate prefixes — over
// random regions and holds every leaf's winners and every split to the
// scan of each table. Tables are shared between walks in different
// orders, and one walk's tables are indexed by it, the others' up front.
func TestJointTrieMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(5)
		tables := make([]*FwdTable, n)
		rules := make([][]FwdRule, n)
		for i := range tables {
			tables[i] = &FwdTable{}
			allDrop := rng.Intn(5) == 0
			for k := rng.Intn(30); k > 0; k-- {
				r := FwdRule{randomPrefix(rng), rng.Intn(4) - 1}
				if allDrop {
					r.Port = Drop
				}
				tables[i].Add(r)
			}
			if trial%2 == 0 {
				tables[i].Index()
			}
			rules[i] = slices.Clone(tables[i].Rules)
		}
		for k := 0; k < 5; k++ {
			g := []Prefix{P(0, 0), randomPrefix(rng)}[rng.Intn(2)]
			if got, want := trieEvents(tables, g), scanTrie(rules, g, nil); !slices.Equal(got, want) {
				t.Fatalf("trial %d: joint walk of %d tables over %v = %v, want %v", trial, n, g, got, want)
			}
			rng.Shuffle(n, func(i, j int) {
				tables[i], tables[j] = tables[j], tables[i]
				rules[i], rules[j] = rules[j], rules[i]
			})
		}
	}
}

// TestByDescendingLengthMatchesSort holds the counting pass to the stable
// sort it replaced.
func TestByDescendingLengthMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	var tbl FwdTable
	for i := 0; i < 500; i++ {
		tbl.Add(FwdRule{randomPrefix(rng), rng.Intn(4)})
	}
	want := make([]int, len(tbl.Rules))
	for i := range want {
		want[i] = i
	}
	sort.SliceStable(want, func(a, b int) bool { return tbl.Rules[want[a]].Prefix.Length > tbl.Rules[want[b]].Prefix.Length })
	if got := tbl.ByDescendingLength(); !slices.Equal(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

// TestRemoveRenumbers removes from a large indexed table, alternately a
// recent rule (few positions move) and any rule (most move); after each
// the rules and the index must be what the scans give.
func TestRemoveRenumbers(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	var tbl FwdTable
	for i := 0; i < 3000; i++ {
		tbl.Add(FwdRule{randomPrefix(rng), rng.Intn(4)})
	}
	tbl.Index()
	shadow := slices.Clone(tbl.Rules)
	for step := 0; step < 200; step++ {
		r := FwdRule{randomPrefix(rng), rng.Intn(4)}
		tbl.AddWithCone(r)
		shadow = append(shadow, r)
		pos := len(shadow) - 1 - rng.Intn(10) // a recent rule: few move
		if step%2 == 0 {
			pos = rng.Intn(len(shadow)) // anywhere: most move
		}
		victim := shadow[pos].Prefix
		var want []int
		shadow, want = scanRemove(shadow, victim)
		want = scanCovering(shadow, want, victim)
		if got, ok := tbl.RemoveWithCone(victim); !ok || !slices.Equal(got.Ports, want) {
			t.Fatalf("step %d: RemoveWithCone(%v) = %v %v, want %v", step, victim, got, ok, want)
		}
		if !slices.Equal(tbl.Rules, shadow) {
			t.Fatalf("step %d: rules differ from the scan's", step)
		}
		checkIndex(t, &tbl)
	}
}

// TestCheckIndexRejects holds CheckIndex to its negative space: a
// duplicated position, two slots out of order and a stale length count
// are each reported.
func TestCheckIndexRejects(t *testing.T) {
	fresh := func() FwdTable {
		var tbl FwdTable
		tbl.Add(FwdRule{P(0x0A000000, 8), 1})
		tbl.Add(FwdRule{P(0x0A000000, 16), 2})
		tbl.Add(FwdRule{P(0x0B000000, 8), 3})
		tbl.Index()
		return tbl
	}
	tbl := fresh()
	if err := tbl.CheckIndex(); err != nil {
		t.Fatal(err)
	}
	for name, broken := range map[string]func(*FwdTable){
		"duplicate": func(t *FwdTable) { t.idx[1] = t.idx[0] },
		"order":     func(t *FwdTable) { t.idx[0], t.idx[2] = t.idx[2], t.idx[0] },
		"lengths":   func(t *FwdTable) { t.lens[8]++ },
	} {
		tbl := fresh()
		broken(&tbl)
		if tbl.CheckIndex() == nil {
			t.Errorf("%s: a broken index passed", name)
		}
	}
}
