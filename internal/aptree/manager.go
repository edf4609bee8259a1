package aptree

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"apclassifier/internal/bdd"
	"apclassifier/internal/predicate"
)

// Manager pairs a live AP Tree with its predicate registry and implements
// the paper's two-process operation (§VI): queries and real-time updates
// are served from the live tree, while Reconstruct — typically run on its
// own goroutine — rebuilds an optimized tree from a snapshot, replays the
// updates that arrived meanwhile, and atomically swaps it in.
//
// Queries never lock. Every mutation runs under the write lock, derives
// a new persistent tree version, and republishes an immutable Snapshot
// through one atomic pointer before releasing the lock; Classify is a
// single atomic load followed by the tree search against that epoch.
// Every rebuild happens in a fresh BDD manager, and a retired DD is
// abandoned whole rather than garbage collected, so snapshots pinned to
// old epochs keep evaluating correctly for as long as they are held.
type Manager struct {
	mu sync.RWMutex
	//lint:guard mu
	d   *bdd.DD
	reg *Registry
	//lint:guard mu
	tree *Tree
	// version increments at every reconstruction swap. Updates publish
	// new epochs under the same version, so per-epoch state must not be
	// keyed by it: it belongs in Snapshot.Memo.
	version uint64

	// snap is the published epoch read by the lock-free query path.
	// Writers store under mu; readers only Load.
	snap atomic.Pointer[Snapshot]

	method Method

	// flatPlans caches predicate lowering plans across the publishes of
	// one DD lineage; Reconstruct's DD swap discards it (refs from the
	// retired DD mean nothing in the new one).
	//lint:guard mu
	flatPlans *flatPlanner

	rebuildMu sync.Mutex
	journal   []journalOp // non-nil while a rebuild is in flight

	// updatesSinceSwap counts Add/Remove/Replace operations applied to the
	// live tree since the last reconstruction; the auto-reconstruction policy
	// triggers on it (§VI-B: "the number of updates on the current AP
	// Tree is higher than a threshold").
	updatesSinceSwap int

	// retiredVisits accumulates, at each reconstruction swap, the visit
	// total of the tree lineage being retired. Together with the live
	// lineage's counters it derives TotalClassifications without adding
	// any work to the lock-free Classify path. Queries still pinned to a
	// retired epoch keep incrementing the old lineage's counters; those
	// late increments are not folded in, so the derived total is a slight
	// undercount under heavy swap churn — an accepted trade for a
	// zero-cost query path.
	//lint:guard mu
	retiredVisits uint64

	// data is the value every publish stores into its Snapshot: set by
	// Tx.SetData, carried forward unchanged by every other publish.
	//lint:guard mu
	data any

	// notify, once created by PublishNotify, receives a coalesced signal
	// (capacity-one, non-blocking send) after every snapshot publication.
	//lint:guard mu
	notify chan struct{}
}

// journalOp is one tree update made while a rebuild was in flight:
// predicate id moved to ref (bdd.False for a removal).
type journalOp struct {
	id  int32
	ref bdd.Ref // in the DD that was live when the op was journaled
}

// NewManager returns a manager over an empty predicate set (every packet
// classifies to the single atom True).
//
//lint:ignore unreached test constructor: the aptree, network and checkpoint tests start managers from an empty predicate set
func NewManager(numVars int, method Method) *Manager {
	d := bdd.New(numVars)
	tree := Build(Input{
		D:     d,
		Preds: nil,
		Live:  nil,
		Atoms: predicate.Compute(d, nil),
	}, MethodOrder)
	return NewManagerWith(d, NewRegistry(), tree, method, nil)
}

// NewManagerWith wraps an already-built tree, its DD and its registry in a
// manager. It is the batch-construction path: converting a whole dataset
// and building the tree once is far cheaper than AddPredicate per
// predicate. The registry must hold retained refs in d, and the tree must
// have been built from the registry's live predicates. The DD must not be
// garbage collected after this call: the manager publishes frozen views
// of it, which a GC would invalidate (run any post-construction GC first).
// data is the first epoch's Snapshot.Data.
func NewManagerWith(d *bdd.DD, reg *Registry, tree *Tree, method Method, data any) *Manager {
	m := &Manager{d: d, reg: reg, tree: tree, method: method, data: data}
	// Single-threaded until returned, so publishing without mu is sound.
	m.publishLocked()
	return m
}

// publishLocked captures the current tree, DD, liveness set and owner
// data into a fresh immutable Snapshot and stores it for the lock-free
// query path. The flat core is compiled against the previous epoch's: only
// what the update changed is planned and emitted (see compileFlat).
// Callers must hold m.mu (or be a constructor with exclusive access).
func (m *Manager) publishLocked() {
	view := m.d.Freeze()
	var prev *Flat
	if m.flatPlans == nil || m.flatPlans.d != m.d {
		m.flatPlans = newFlatPlanner(m.d)
	} else if s := m.snap.Load(); s != nil {
		prev = s.flat // same DD lineage: its refs mean the same here
	}
	start := time.Now()
	flat := compileFlat(m.tree, view, m.flatPlans, prev)
	mFlatBuildDur.Record(time.Since(start).Seconds())
	m.flatPlans.trim(m.reg)
	mFlatPlans.Set(int64(len(m.flatPlans.plans)))
	mFlatBuilds.Inc()
	mFlatEmitted.Add(uint64(flat.emitted))
	st := flat.Stats()
	mFlatNodes.Set(int64(st.Nodes))
	mFlatBytes.Set(int64(st.Bytes))
	mFlatMask.Set(int64(st.MaskNodes))
	mFlatCubes.Set(int64(st.CubeNodes))
	mFlatFallback.Set(int64(st.FallbackNodes))
	m.snap.Store(&Snapshot{
		tree:    m.tree,
		view:    view,
		flat:    flat,
		live:    m.reg.live, // copy-on-write: never mutated after this
		numLive: m.reg.n,
		version: m.version,
		data:    m.data,
		visits:  m.tree.visits.view(),
	})
	// Publish boundaries are also the metrics flush points: the write
	// lock is held, so the DD's plain counters are stable to read.
	m.d.PublishStats()
	mPublishes.Inc()
	if m.notify != nil {
		select {
		case m.notify <- struct{}{}:
		default: // a signal is already pending; coalesce
		}
	}
}

// Snapshot returns the current published epoch. The result is immutable
// and remains valid (pinned to its epoch) across any number of later
// updates and reconstructions.
func (m *Manager) Snapshot() *Snapshot { return m.snap.Load() }

// DD returns the live BDD manager. Callers must only use it inside
// AddPredicate's build callback or while holding no expectation of
// stability across updates; it exists mainly for tests and experiments.
func (m *Manager) DD() *bdd.DD {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.d
}

// Tree returns the live tree (snapshot pointer; safe to read concurrently
// with queries, not with updates).
func (m *Manager) Tree() *Tree {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.tree
}

// Version reports the published reconstruction epoch.
func (m *Manager) Version() uint64 { return m.snap.Load().version }

// NumLive reports the number of live predicates in the published epoch.
func (m *Manager) NumLive() int { return m.snap.Load().numLive }

// Classify returns the leaf for pkt together with the epoch it came
// from. It acquires no lock: the published snapshot is loaded once and
// the whole search runs against that epoch.
func (m *Manager) Classify(pkt []byte) (*Node, uint64) {
	return m.snap.Load().Classify(pkt)
}

// Tx is a handle for compound predicate updates executed atomically under
// the manager's write lock; see Manager.Update. Tx methods touch the
// guarded tree and DD directly: Update holds the write lock for the whole
// callback.
type Tx struct {
	m *Manager
	// stats accumulates the structural delta work of the transaction's
	// Add/Remove/Replace calls; Update flushes it into the apc_delta_*
	// metrics.
	stats DeltaStats
}

// DD returns the live BDD manager; valid only inside the Update callback.
//
//lint:ignore lockguard Update holds m.mu for the life of the Tx
func (tx *Tx) DD() *bdd.DD { return tx.m.d }

// Ref returns the BDD of predicate id.
func (tx *Tx) Ref(id int32) bdd.Ref { return tx.m.reg.Ref(id) }

// Data returns the value the previous publish carried (Snapshot.Data).
//
//lint:ignore lockguard Update holds m.mu for the life of the Tx
func (tx *Tx) Data() any { return tx.m.data }

// SetData replaces the per-epoch value this Update publishes with the
// tree: the owner's state that must never be seen with another epoch's
// tree (the facade's predicate wiring and delta cursor). The value must
// be immutable from here on; later publishes — updates that do not set
// it, reconstruction swaps — carry it forward unchanged.
//
//lint:ignore lockguard Update holds m.mu for the life of the Tx
func (tx *Tx) SetData(v any) { tx.m.data = v }

// Add registers a predicate BDD (built in tx.DD()) and places it in the
// live tree in real time (§VI-A), returning its new global ID: the slot
// moves from bdd.False to ref over the region ref. The tree update is
// persistent: pinned snapshots keep the previous version.
//
//lint:ignore lockguard Update holds m.mu for the life of the Tx
func (tx *Tx) Add(ref bdd.Ref) int32 {
	m := tx.m
	m.d.Retain(ref)
	id := m.reg.Add(ref)
	tx.set(id, ref, ref)
	return id
}

// Remove deletes a live predicate — the only way one leaves: the registry
// slot dies (IDs are never reused) and the live tree moves the slot from
// its BDD to bdd.False over the region that BDD covers, merging the atoms
// it alone separated, so the partition is the coarsest one for the current
// predicate set in the very epoch this update publishes. The caller must
// unwire the ID from whatever refers to it (network port and ACL slots)
// inside the same Update: stage 2 tests membership bits without a liveness
// probe, and a dead ID's bit reads clear on every leaf. Like Add, the tree
// update is persistent and pinned snapshots keep the previous version.
func (tx *Tx) Remove(id int32) {
	tx.set(id, bdd.False, tx.m.reg.Remove(id))
}

// Replace swaps live predicate id's BDD for ref (built in tx.DD()) and
// keeps the ID, so nothing wired to it needs rewiring. region must hold
// every header whose membership in id changes (old ⊕ ref ⊆ region); the
// tree re-cuts only the leaves that meet it (Tree.ReplacePredicate), which
// for a rule change is the LPM cone rather than the whole header space.
// Like Add and Remove, the update is persistent and pinned snapshots keep
// the previous version.
//
//lint:ignore lockguard Update holds m.mu for the life of the Tx
func (tx *Tx) Replace(id int32, ref, region bdd.Ref) {
	m := tx.m
	m.d.Retain(ref)
	m.reg.Replace(id, ref)
	tx.set(id, ref, region)
}

// set is the tree half every Tx update shares, run after the registry
// half: predicate id moves to ref over region (Tree.ReplacePredicate), and
// a rebuild in flight journals the move.
//
//lint:ignore lockguard Update holds m.mu for the life of the Tx
func (tx *Tx) set(id int32, ref, region bdd.Ref) {
	m := tx.m
	m.tree = m.tree.replacePredicate(id, ref, region, &tx.stats)
	m.updatesSinceSwap++
	if m.journal != nil {
		m.journal = append(m.journal, journalOp{id: id, ref: ref})
	}
}

// Update runs fn under the write lock and republishes the snapshot. All
// predicate changes triggered by one data-plane event (a rule insertion
// can alter several port predicates through LPM shadowing) should share
// one Update so queries see them atomically: concurrent queries answer
// from the previous epoch until the single publish at the end. State the
// owner keeps beside the tree (Tx.SetData) joins the same publish.
func (m *Manager) Update(fn func(tx *Tx)) {
	start := time.Now()
	m.mu.Lock()
	defer m.mu.Unlock()
	tx := &Tx{m: m}
	fn(tx)
	m.publishLocked()
	mUpdates.Inc()
	mUpdateDur.Record(time.Since(start).Seconds())
	if !tx.stats.zero() {
		mDeltaTouched.Add(tx.stats.TouchedLeaves)
		mDeltaSplits.Add(tx.stats.Splits)
		mDeltaMerges.Add(tx.stats.Merges)
		mDeltaApplyDur.Record(time.Since(start).Seconds())
	}
}

// AddPredicate registers a new predicate and updates the live tree in real
// time (§VI-A). The build callback constructs the predicate's BDD in the
// live DD under the write lock; it must not retain the *DD.
func (m *Manager) AddPredicate(build func(d *bdd.DD) bdd.Ref) int32 {
	var id int32
	m.Update(func(tx *Tx) { id = tx.Add(build(tx.DD())) })
	return id
}

// RemovePredicate physically removes a live predicate and merges the atoms
// it alone separated; see Tx.Remove.
func (m *Manager) RemovePredicate(id int32) {
	m.Update(func(tx *Tx) { tx.Remove(id) })
}

// Ref returns the BDD of predicate id in the live DD. The ref is only
// stable until the next Reconstruct swap.
func (m *Manager) Ref(id int32) bdd.Ref {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.reg.Ref(id)
}

// LiveIDs returns the live predicate IDs.
func (m *Manager) LiveIDs() []int32 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.reg.LiveIDs()
}

// Reconstruct rebuilds an optimized tree from the current live predicates
// and swaps it in (§VI-B). If weighted is true, per-leaf visit counters of
// the old tree are carried over as atom weights so frequently queried atoms
// end up closer to the root (§V-D). Reconstruct is safe to run concurrently
// with Classify and every update; concurrent Reconstruct calls
// serialize.
func (m *Manager) Reconstruct(weighted bool) {
	start := time.Now()
	m.rebuildMu.Lock()
	defer m.rebuildMu.Unlock()
	defer func() { mRebuildDur.Record(time.Since(start).Seconds()) }()

	// Phase 1: open the journal and snapshot the live predicate set.
	m.mu.Lock()
	m.journal = []journalOp{}
	snap := m.reg.Clone()
	oldD := m.d
	type leafWeight struct {
		ref bdd.Ref
		w   float64
	}
	var weights []leafWeight
	if weighted {
		tree := m.tree
		tree.Leaves(func(n *Node) {
			if v := tree.Visits(n); v > 0 {
				weights = append(weights, leafWeight{n.BDD, float64(v)})
			}
		})
	}
	m.mu.Unlock()

	// Phase 2: transfer live predicates (and weighted leaf BDDs) into a
	// private DD. Reading oldD requires the read lock because concurrent
	// updates mutate it.
	newD := bdd.New(oldD.NumVars())
	liveIDs := snap.LiveIDs()
	newRefs := make([]bdd.Ref, snap.NumIDs())
	m.mu.RLock()
	for _, id := range liveIDs {
		newRefs[id] = bdd.Transfer(newD, oldD, snap.Ref(id))
	}
	weightByRef := make(map[bdd.Ref]float64, len(weights))
	for _, lw := range weights {
		weightByRef[bdd.Transfer(newD, oldD, lw.ref)] = lw.w
	}
	m.mu.RUnlock()
	for _, id := range liveIDs {
		newD.Retain(newRefs[id])
	}

	// Phase 3: compute atoms and build the new tree, entirely in the
	// private DD — no locks, queries continue on the old tree.
	liveRefs := make([]bdd.Ref, len(liveIDs))
	intIDs := make([]int, len(liveIDs))
	for i, id := range liveIDs {
		liveRefs[i] = newRefs[id]
		intIDs[i] = int(id)
	}
	atoms := predicate.ComputeMapped(newD, liveRefs, intIDs, snap.NumIDs())
	var atomWeights []float64
	if weighted && len(weightByRef) > 0 {
		atomWeights = make([]float64, atoms.N())
		for i, ref := range atoms.List {
			if w, ok := weightByRef[ref]; ok {
				atomWeights[i] = w
			} else {
				atomWeights[i] = 1 // new or re-cut atom: neutral weight
			}
		}
	}
	newTree := Build(Input{
		D:       newD,
		Preds:   newRefs,
		Live:    liveIDs,
		Atoms:   atoms,
		Weights: atomWeights,
		Rand:    rand.New(rand.NewSource(1)),
	}, m.method)

	// Phase 4: replay updates that arrived during the rebuild, then swap.
	m.mu.Lock()
	for _, op := range m.journal {
		ref := bdd.Transfer(newD, oldD, op.ref)
		newD.Retain(ref)
		for int32(len(newRefs)) <= op.id {
			newRefs = append(newRefs, bdd.False)
		}
		// The journal keeps no region; old ⊕ new is the exact one.
		newTree = newTree.ReplacePredicate(op.id, ref, newD.Xor(newRefs[op.id], ref))
		newRefs[op.id] = ref
	}
	// Point the registry at the new DD. Every ID issued since phase 1 was
	// journaled, so newRefs covers the whole ID space; dead slots are
	// bdd.False on both sides.
	copy(m.reg.refs, newRefs)
	// Retire the old epoch's counters: flush the abandoned DD's work
	// stats one last time and bank the old lineage's visit total.
	m.d.PublishStats()
	m.retiredVisits += m.tree.visits.total()
	m.d = newD
	m.tree = newTree
	m.version++
	mSwaps.Inc()
	// Updates replayed from the journal are already in the new tree but
	// count toward the next rebuild trigger, since the new tree was not
	// optimized for them.
	m.updatesSinceSwap = len(m.journal)
	m.journal = nil
	// Publish the new epoch. The old DD is abandoned whole — never GC'd —
	// so snapshots pinned to earlier epochs keep evaluating against it.
	m.publishLocked()
	m.mu.Unlock()
}

// UpdatesSinceSwap reports tree updates applied since the last
// reconstruction swap.
func (m *Manager) UpdatesSinceSwap() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.updatesSinceSwap
}

// AutoReconstruct starts the §VI-B reconstruction policy on its own
// goroutine: every interval it checks whether at least threshold updates
// hit the live tree since the last swap and, if so, rebuilds (optionally
// distribution-aware) and swaps. The returned stop function halts the
// policy and waits for any in-flight rebuild to finish; it is idempotent,
// so callers may both defer it and invoke it early.
func (m *Manager) AutoReconstruct(threshold int, interval time.Duration, weighted bool) (stop func()) {
	if threshold < 1 {
		panic("aptree: AutoReconstruct threshold must be >= 1")
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				if m.UpdatesSinceSwap() >= threshold {
					m.Reconstruct(weighted)
				}
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() { close(done) })
		wg.Wait()
	}
}
