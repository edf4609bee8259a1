package checkpoint

import (
	"sync"
	"time"

	"apclassifier/internal/aptree"
)

// RunnerConfig tunes the background checkpointer.
type RunnerConfig struct {
	// Interval is the periodic checkpoint cadence; 0 disables the timer
	// so only publish-triggered checkpoints happen.
	Interval time.Duration
	// MinGap is the coalescing window: after a save, further publish
	// signals accumulate until MinGap has passed before the next save.
	// An update storm therefore costs one checkpoint per window, not one
	// per update. Zero means a 1s default.
	MinGap time.Duration
	// OnError, if non-nil, observes save failures (the runner keeps
	// going; the next trigger retries). Errors are also counted in
	// apc_checkpoint_save_errors_total.
	OnError func(error)
}

// Runner is the background checkpointer: it listens for snapshot
// publications on the manager's coalesced notify channel (every update
// and reconstruction swap fires it) and for the periodic timer, and
// writes a checkpoint whenever the state is dirty and the coalescing
// window allows. It never touches the manager's locks — capture returns
// a Source whose snapshot pins the epoch — so the lock-free query path
// is never blocked by checkpointing.
type Runner struct {
	dir     *Dir
	capture func() *Source
	cfg     RunnerConfig

	done     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// StartRunner launches the checkpointer goroutine. capture must return
// a consistent Source (callers embedding the classifier under an outer
// lock, like the HTTP server, take that lock inside capture); it runs on
// the runner's goroutine. An initial checkpoint is written immediately
// so a fresh directory is restorable as soon as the service is up, and
// Stop writes a final one if state changed since the last save.
func StartRunner(dir *Dir, m *aptree.Manager, capture func() *Source, cfg RunnerConfig) *Runner {
	if cfg.MinGap <= 0 {
		cfg.MinGap = time.Second
	}
	r := &Runner{dir: dir, capture: capture, cfg: cfg, done: make(chan struct{})}
	notify := m.PublishNotify()
	r.wg.Add(1)
	go r.loop(notify)
	return r
}

func (r *Runner) loop(notify <-chan struct{}) {
	defer r.wg.Done()
	var tickC <-chan time.Time
	if r.cfg.Interval > 0 {
		tick := time.NewTicker(r.cfg.Interval)
		defer tick.Stop()
		tickC = tick.C
	}
	// gap is armed while a publish arrived inside the coalescing window;
	// its firing performs the deferred save.
	gap := time.NewTimer(0)
	if !gap.Stop() {
		<-gap.C
	}
	gapArmed := false

	dirty := true // initial checkpoint: a fresh dir must become restorable
	var lastSave time.Time
	save := func() {
		if _, err := r.dir.Save(r.capture()); err != nil {
			if r.cfg.OnError != nil {
				r.cfg.OnError(err)
			}
			return // stay dirty; the next trigger retries
		}
		dirty = false
		lastSave = time.Now()
	}
	save()

	for {
		select {
		case <-r.done:
			// A publish that signalled while the last save was encoding
			// is still pending on notify, and select may pick done
			// first: look before deciding the state is clean.
			select {
			case <-notify:
				dirty = true
			default:
			}
			if dirty {
				save()
			}
			return
		case <-notify:
			dirty = true
			if since := time.Since(lastSave); since >= r.cfg.MinGap {
				save()
			} else if !gapArmed {
				gap.Reset(r.cfg.MinGap - since)
				gapArmed = true
			}
		case <-gap.C:
			gapArmed = false
			if dirty {
				save()
			}
		case <-tickC:
			if dirty {
				save()
			}
		}
	}
}

// Stop halts the runner, writing a final checkpoint first if any
// publish arrived since the last save — the graceful-shutdown half of
// warm restart. It returns once the goroutine has exited, and is
// idempotent so a deferred Stop can back up an explicit shutdown path.
func (r *Runner) Stop() {
	r.stopOnce.Do(func() { close(r.done) })
	r.wg.Wait()
}
