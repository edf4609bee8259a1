package hsa

// AllResult is the outcome of whole-header-space reachability analysis:
// for a set of headers injected at one box, the subsets that reach each
// host, the subsets that die, and the subsets that loop.
type AllResult struct {
	// ToHost maps host name → union of wildcard expressions delivered.
	ToHost map[string][]Expr
	// Dropped is the union of expressions that died anywhere (no route,
	// ACL deny, deny rule, or dangling port).
	Dropped []Expr
	// Loops is the union of expressions that re-entered a box already on
	// their own path.
	Loops []Expr
	// Pieces counts header-space fragments processed, the HSA work
	// metric for set-based analysis.
	Pieces int
}

// ReachAll propagates an arbitrary header-space set from ingress through
// the network, splitting it per rule exactly as Hassel does: each transfer
// function routes hs∩match_i to rule i's port and passes hs∖match_i to the
// next rule. Loop detection follows the HSA paper: a branch terminates
// (and is reported) when it revisits a box on its own path.
//
//lint:ignore unreached oracle: reachall_test.go holds verify's whole-header-space reach sets to it, the independent HSA cross-check
func (n *Net) ReachAll(ingress int, hs []Expr) *AllResult {
	res := &AllResult{ToHost: map[string][]Expr{}}
	type head struct {
		box  int
		hs   Expr
		path []int
	}
	var queue []head
	for _, e := range hs {
		queue = append(queue, head{ingress, e, nil})
	}
	onPath := func(path []int, box int) bool {
		for _, b := range path {
			if b == box {
				return true
			}
		}
		return false
	}
	for len(queue) > 0 {
		h := queue[0]
		queue = queue[1:]
		res.Pieces++
		if onPath(h.path, h.box) {
			res.Loops = append(res.Loops, h.hs)
			continue
		}
		hb := &n.Boxes[h.box]
		path := append(append([]int(nil), h.path...), h.box)

		pieces := []Expr{h.hs}
		if hb.InACL != nil {
			var denied []Expr
			pieces, denied = filterSet(hb.InACL, pieces)
			res.Dropped = append(res.Dropped, denied...)
		}

		// Transfer function with per-rule subtraction.
		for _, piece := range pieces {
			remaining := []Expr{piece}
			for ri := range hb.TF {
				if len(remaining) == 0 {
					break
				}
				match := hb.TF[ri].Match
				var hit []Expr
				var miss []Expr
				for _, r := range remaining {
					if inter, ok := r.Intersect(match); ok {
						hit = append(hit, inter)
						miss = append(miss, r.Subtract(match)...)
					} else {
						miss = append(miss, r)
					}
				}
				remaining = miss
				if len(hit) == 0 {
					continue
				}
				if hb.TF[ri].Deny {
					res.Dropped = append(res.Dropped, hit...)
					continue
				}
				out := hb.TF[ri].Port
				if f := hb.PortACL[out]; f != nil {
					var denied []Expr
					hit, denied = filterSet(f, hit)
					res.Dropped = append(res.Dropped, denied...)
				}
				peer, ok := hb.Peer[out]
				if !ok {
					res.Dropped = append(res.Dropped, hit...)
					continue
				}
				if peer.Name != "" {
					res.ToHost[peer.Name] = append(res.ToHost[peer.Name], hit...)
					continue
				}
				for _, e := range hit {
					queue = append(queue, head{peer.Box, e, path})
				}
			}
			// Matched by no rule at all: dropped.
			res.Dropped = append(res.Dropped, remaining...)
		}
	}
	return res
}

// filterSet pushes a header-space set through an ACL filter, returning the
// permitted and denied subsets.
func filterSet(f *Filter, hs []Expr) (permitted, denied []Expr) {
	remaining := hs
	for ri := range f.Rules {
		if len(remaining) == 0 {
			break
		}
		match := f.Rules[ri].Match
		var miss []Expr
		for _, r := range remaining {
			if inter, ok := r.Intersect(match); ok {
				if f.Rules[ri].Deny {
					denied = append(denied, inter)
				} else {
					permitted = append(permitted, inter)
				}
				miss = append(miss, r.Subtract(match)...)
			} else {
				miss = append(miss, r)
			}
		}
		remaining = miss
	}
	if f.DefaultPermit {
		permitted = append(permitted, remaining...)
	} else {
		denied = append(denied, remaining...)
	}
	return permitted, denied
}
