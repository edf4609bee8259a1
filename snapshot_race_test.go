package apclassifier

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"apclassifier/internal/bdd"
	"apclassifier/internal/netgen"
	"apclassifier/internal/rule"
)

// TestBehaviorUnderManagerChurn hammers the lock-free query path of the
// facade — Behavior, BehaviorWith and pinned Snapshot queries — while the
// manager absorbs predicate adds, deletes, explicit reconstructions and
// the auto-reconstruction policy. The churn is manager-level only (no
// topology rewiring), so every query must keep returning the pre-churn
// behavior: the extra predicates change the atom partition, never the
// network semantics. Run under -race this is the facade-level witness
// that queries touch no mutex yet stay coherent.
func TestBehaviorUnderManagerChurn(t *testing.T) {
	ds := netgen.Internet2Like(netgen.Config{Seed: 21, RuleScale: 0.01})
	c, err := New(ds, Options{})
	if err != nil {
		t.Fatal(err)
	}
	numVars := ds.Layout.Bits()

	type query struct {
		ingress int
		pkt     []byte
		want    string
	}
	rng := rand.New(rand.NewSource(41))
	queries := make([]query, 32)
	for i := range queries {
		f := rule.Fields{Dst: 0x0A000000 | uint32(rng.Intn(1<<16))}
		q := query{ingress: rng.Intn(len(ds.Boxes)), pkt: ds.PacketFromFields(f)}
		q.want = c.Behavior(q.ingress, q.pkt).String()
		queries[i] = q
	}

	stop := c.Manager.AutoReconstruct(6, time.Millisecond, true)
	defer stop()

	var wg sync.WaitGroup
	done := make(chan struct{})

	// Writer: churn the predicate set through the manager. The added
	// predicates belong to no box, so removing them again is always safe.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		wrng := rand.New(rand.NewSource(43))
		var ids []int32
		for i := 0; i < 40; i++ {
			if len(ids) > 3 && wrng.Intn(3) == 0 {
				k := wrng.Intn(len(ids))
				c.Manager.RemovePredicate(ids[k])
				ids = append(ids[:k], ids[k+1:]...)
			} else {
				bits := uint64(wrng.Uint32())
				id := c.Manager.AddPredicate(func(d *bdd.DD) bdd.Ref {
					return d.FromPrefix(0, bits>>8, 8+wrng.Intn(17), numVars)
				})
				ids = append(ids, id)
			}
			if i%9 == 0 {
				c.Reconstruct(i%18 == 0)
			}
		}
	}()

	// Batch reader: whole batches interleave with the updates and swaps;
	// each batch pins one epoch, so its answers must stay coherent even
	// when the behavior cache is replaced mid-flight.
	wg.Add(1)
	go func() {
		defer wg.Done()
		buf := c.NewBatchBuffer()
		pkts := make([][]byte, len(queries))
		ingress := make([]int, len(queries))
		for i, q := range queries {
			pkts[i] = q.pkt
			ingress[i] = q.ingress
		}
		for i := 0; i < 400; i++ {
			for k, b := range c.Snapshot().BehaviorBatch(buf, ingress, pkts) {
				if got := b.String(); got != queries[k].want {
					t.Errorf("BehaviorBatch drifted under churn:\n got %q\nwant %q", got, queries[k].want)
					return
				}
			}
			select {
			case <-done:
				return
			default:
			}
		}
	}()

	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			w := c.NewWalker()
			qrng := rand.New(rand.NewSource(seed))
			for i := 0; i < 400; i++ {
				q := queries[qrng.Intn(len(queries))]
				if got := c.Behavior(q.ingress, q.pkt).String(); got != q.want {
					t.Errorf("Behavior drifted under churn:\n got %q\nwant %q", got, q.want)
					return
				}
				if got := c.BehaviorWith(w, q.ingress, q.pkt).String(); got != q.want {
					t.Errorf("BehaviorWith drifted under churn:\n got %q\nwant %q", got, q.want)
					return
				}
				// A pinned snapshot must answer consistently for a whole
				// batch even if the epoch is swapped mid-batch.
				s := c.Snapshot()
				v := s.Version()
				for k := 0; k < 4; k++ {
					b := queries[(i+k)%len(queries)]
					if got := s.BehaviorFrom(b.ingress, b.pkt, s.Classify(b.pkt)).String(); got != b.want {
						t.Errorf("snapshot BehaviorFrom drifted under churn:\n got %q\nwant %q", got, b.want)
						return
					}
				}
				if s.Version() != v {
					t.Error("snapshot version changed under the caller")
					return
				}
				select {
				case <-done:
					return
				default:
				}
			}
		}(int64(50 + r))
	}
	wg.Wait()
}
