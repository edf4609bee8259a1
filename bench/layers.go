package main

import (
	"bytes"
	"runtime"
	"sort"
	"strconv"
	"strings"

	"apclassifier/internal/obs"
)

// scrape reads every series of the process-wide obs registry through its
// public text exposition — the same bytes GET /metrics serves.
func scrape() map[string]float64 {
	var buf bytes.Buffer
	_ = obs.Default.WritePrometheus(&buf) // a bytes.Buffer write cannot fail
	out := map[string]float64{}
	for _, line := range strings.Split(buf.String(), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out
}

// obsLayers fills the per-layer metrics that are differences (or final
// values) of obs series over the traced window. A series the registry
// does not have leaves its metric at 0 and is returned by name.
func obsLayers(m map[string]float64, before, after map[string]float64) (absent []string) {
	missing := map[string]bool{}
	delta := func(name string) float64 {
		if _, ok := after[name]; !ok {
			missing[name] = true
		}
		return after[name] - before[name]
	}
	gauge := func(name string) float64 {
		if _, ok := after[name]; !ok {
			missing[name] = true
		}
		return after[name]
	}
	hitRatio := func(hits, misses string) float64 {
		h, x := delta(hits), delta(misses)
		return ratio(h, h+x)
	}
	mean := func(hist string) float64 { // µs per observation
		return ratio(delta(hist+"_sum"), delta(hist+"_count")) * 1e6
	}
	m["aptree.flat_fallback_ratio"] = ratio(gauge("apc_flat_fallback_nodes"), gauge("apc_flat_nodes"))
	m["network.cache_hit_ratio"] = hitRatio("apc_behavior_cache_hits_total", "apc_behavior_cache_misses_total")
	m["cluster.retries"] = delta("apc_router_shard_retries_total")
	m["cluster.shard_errors"] = delta("apc_router_shard_errors_total")
	m["aptree.update_us"] = mean("apc_aptree_update_duration_seconds")
	m["aptree.flat_build_us"] = mean("apc_flat_build_duration_seconds")
	m["aptree.publishes"] = delta("apc_aptree_snapshot_publishes_total")
	m["aptree.delta_splits"] = delta("apc_delta_splits_total")
	m["aptree.delta_merges"] = delta("apc_delta_merges_total")
	m["aptree.touched_leaves"] = delta("apc_delta_touched_leaves_total")
	m["bdd.apply_ops"] = delta("apc_bdd_apply_ops_total")
	m["bdd.nodes_allocated"] = delta("apc_bdd_nodes_allocated_total")
	m["bdd.cache_hit_ratio"] = hitRatio("apc_bdd_cache_hits_total", "apc_bdd_cache_misses_total")
	m["bdd.gc_runs"] = delta("apc_bdd_gc_runs_total")
	for name := range missing {
		absent = append(absent, name)
	}
	sort.Strings(absent)
	return absent
}

func memNow() runtime.MemStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms
}

// runtimeLayers fills the whole-process allocation and GC context of the
// traced window, per header answered, and the window's own extremes.
func runtimeLayers(m map[string]float64, m0, m1 runtime.MemStats, kept []sliceStat) {
	var ops, stall float64
	var late []float64
	for _, s := range kept {
		ops += float64(s.ops)
		if ms := float64(s.stall) / 1e6; ms > stall {
			stall = ms
		}
		for _, l := range s.late {
			late = append(late, float64(l)/1e6)
		}
	}
	m["runtime.allocs_per_op"] = ratio(float64(m1.Mallocs-m0.Mallocs), ops)
	m["runtime.alloc_bytes_per_op"] = ratio(float64(m1.TotalAlloc-m0.TotalAlloc), ops)
	m["runtime.gc_pause_ms"] = float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6
	m["server.max_stall_ms"] = stall
	m["loadgen.late_ms"] = median(late)
	m["host.ncpu"] = float64(runtime.NumCPU())
	m["host.gomaxprocs"] = float64(runtime.GOMAXPROCS(0))
}

// spanMetric maps a span name to the per-layer metric its median fills.
type spanMetric struct {
	span, metric string
	scale        float64 // ns → the metric's unit
	perItem      bool    // divide each span by the headers it covered
	self         bool    // use self time, not duration
}

var spanMetrics = []spanMetric{
	{"client.request", "loopback.transport_us", 1e-3, false, true},
	{"server.handler", "server.handler_us", 1e-3, false, false},
	{"server.decode", "server.decode_us", 1e-3, false, false},
	{"server.encode", "server.encode_us", 1e-3, false, false},
	{"cluster.route", "cluster.route_us", 1e-3, false, false},
	{"cluster.shard_wait", "cluster.shard_wait_us", 1e-3, false, false},
	{"aptree.classify", "aptree.classify_ns", 1, true, false},
	{"aptree.classify_batch", "aptree.classify_batch_ns", 1, true, false},
	{"network.walk", "network.walk_ns", 1, true, false},
	{"rule.cone", "rule.cone_us", 1e-3, true, false},
	{"apclassifier.delta_apply", "apclassifier.delta_apply_us", 1e-3, false, false},
	{"verify.new", "verify.new_ms", 1e-6, false, false},
	{"verify.loops", "verify.loops_ms", 1e-6, false, false},
	{"verify.reach", "verify.reach_ms", 1e-6, false, false},
}

// spanLayers fills the per-layer metrics that are medians over spans, and
// the two that are differences of replay medians (one goroutine, nothing
// else running): what the server handler spends outside classify and walk,
// and what the router spends outside waiting for its shards.
func spanLayers(m map[string]float64, sum map[string]nameStats) {
	for _, sm := range spanMetrics {
		st, ok := sum[sm.span]
		switch {
		case !ok:
			m[sm.metric] = 0
		case sm.perItem:
			m[sm.metric] = st.PerItemNS * sm.scale
		case sm.self:
			m[sm.metric] = st.P50SelfUS * 1e3 * sm.scale
		default:
			m[sm.metric] = st.P50US * 1e3 * sm.scale
		}
	}
	if h, ok := sum["server.handler.idle"]; ok {
		stage1, batch := sum["aptree.classify_batch"]
		if !batch {
			stage1 = sum["aptree.classify"]
		}
		m["server.self_us"] = h.P50US - stage1.P50US - sum["network.walk"].P50US
	}
	if r, ok := sum["cluster.route.idle"]; ok {
		m["cluster.self_us"] = r.P50US - sum["cluster.shard_wait"].P50US
	}
}
