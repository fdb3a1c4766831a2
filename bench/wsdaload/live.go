package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"

	"wsda/internal/sdk"
)

const (
	// slices cut the timed window; ops_s and server_cpu_ms_per_op are
	// computed per slice and the run reports the median slice.
	slices = 6
	// setupReps is how often a run sets the topology up; setup_s is the
	// median and the last one carries the timed window.
	setupReps = 3
)

// classStats is what one latency class did in the timed window.
type classStats struct {
	attempted, failed int
	durMS, firstMS    []float64 // ok ops only, ascending
}

// result is one workload's run.
type result struct {
	name      string
	classes   [numClasses]classStats
	kindDurMS [numKinds][]float64
	endToEnd  map[string]metric
	perLayer  map[string]metric
	// mustBeZero are counters whose movement fails the run loudly.
	mustBeZero map[string]float64
	firstErr   error
}

func (r *result) attempted() (n int) {
	for _, c := range r.classes {
		n += c.attempted
	}
	return n
}

func (r *result) failed() (n int) {
	for _, c := range r.classes {
		n += c.failed
	}
	return n
}

func (r *result) correct() bool {
	for _, v := range r.mustBeZero {
		if v != 0 {
			return false
		}
	}
	return r.failed() == 0 && r.attempted() > 0
}

func (r *result) print(w io.Writer, trace bool) {
	fmt.Fprintf(w, "\n== %s ==\n", r.name)
	for c, st := range r.classes {
		fmt.Fprintf(w, "  class %-6s attempted %7d  failed %d  samples %d\n", classNames[c], st.attempted, st.failed, len(st.durMS))
	}
	if r.firstErr != nil {
		fmt.Fprintf(w, "  FIRST FAILURE: %v\n", r.firstErr)
	}
	for name, v := range r.mustBeZero {
		if v != 0 {
			fmt.Fprintf(w, "  MUST BE ZERO: %s = %v\n", name, v)
		}
	}
	fmt.Fprintln(w, "  end to end:")
	for _, n := range sortedNames(r.endToEnd) {
		fmt.Fprintf(w, "    %-32s %14.4f %s\n", n, r.endToEnd[n].Value, r.endToEnd[n].Unit)
	}
	fmt.Fprintln(w, "  per layer:")
	for _, n := range sortedNames(r.perLayer) {
		fmt.Fprintf(w, "    %-32s %14.4f %s\n", n, r.perLayer[n].Value, r.perLayer[n].Unit)
	}
	if !trace {
		fmt.Fprintln(w, "  (replay metrics need -trace 1)")
	}
}

// rig is one set-up topology with its clients.
type rig struct {
	topo    *topology
	clients []*loadClient
	sdk     *sdk.Client
	stopped bool
}

func (g *rig) stop() {
	if g.stopped {
		return
	}
	g.stopped = true
	if g.sdk != nil {
		g.sdk.Close()
	}
	for _, c := range g.clients {
		c.close()
	}
	g.topo.stop()
}

// setUp boots the daemons, publishes the population over HTTP and warms
// the mix up. Its duration is one setup_s observation; binaries were
// built before.
func setUp(sp spec, ds *dataset, seed int64, binDir, outDir string, hc *http.Client) (*rig, time.Duration, error) {
	start := time.Now()
	topo, err := boot(sp, binDir, outDir, hc)
	if err != nil {
		return nil, 0, err
	}
	g := &rig{topo: topo}
	n := sp.clientCount()
	for i := 0; i < n; i++ {
		g.clients = append(g.clients, newLoadClient(topo.edge, topo.token, newClientState(sp, ds, seed, i, n)))
	}
	if err := populate(g.clients, ds.tuples); err != nil {
		g.stop()
		return nil, 0, fmt.Errorf("publishing the population: %w", err)
	}
	if sp.sdk {
		g.sdk, err = sdk.New(sdk.Config{Origin: topo.edge, Token: topo.token})
		if err != nil {
			g.stop()
			return nil, 0, err
		}
		g.sdk.Start()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		err = g.sdk.WaitCursor(ctx, 0)
		cancel()
		if err != nil {
			g.stop()
			return nil, 0, fmt.Errorf("sdk feed tail never armed: %w", err)
		}
	}
	if err := warmUp(sp, ds, g.clients, sp.warm); err != nil {
		g.stop()
		return nil, 0, err
	}
	return g, time.Since(start), nil
}

// procSnap is the /proc state read at one slice boundary.
type procSnap struct {
	daemonCPU []float64 // ms, by daemon
	selfCPU   float64   // ms, the load generator
}

func snapProcs(topo *topology) (procSnap, error) {
	var s procSnap
	for _, d := range topo.daemons {
		cpu, err := readProcCPU(d.cmd.Process.Pid)
		if err != nil {
			return s, fmt.Errorf("%s: %w", d.name, err)
		}
		s.daemonCPU = append(s.daemonCPU, cpu)
	}
	var err error
	s.selfCPU, err = readProcCPU(os.Getpid())
	return s, err
}

// scrape reads every daemon's /metrics, in daemon order.
func (t *topology) scrape(hc *http.Client) ([]promSeries, error) {
	out := make([]promSeries, len(t.daemons))
	for i, d := range t.daemons {
		var err error
		if out[i], err = scrapeMetrics(hc, d.base); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// volCtxSw is the daemons' voluntary context switches so far.
func (t *topology) volCtxSw() (n float64) {
	for _, d := range t.daemons {
		n += readVolCtxSw(d.cmd.Process.Pid)
	}
	return n
}

// sdkWatch samples the SDK's feed staleness during the window and keeps a
// few tuples cached, so the feed has something to invalidate. It adds
// about twenty lookups a second beside the closed loop.
type sdkWatch struct {
	stalenessMS []float64
	lookups     int
	failed      int
}

func (w *sdkWatch) run(c *sdk.Client, ds *dataset, stop <-chan struct{}) {
	t := time.NewTicker(50 * time.Millisecond)
	defer t.Stop()
	for i := 0; ; i++ {
		select {
		case <-stop:
			return
		case <-t.C:
		}
		w.stalenessMS = append(w.stalenessMS, float64(c.Stats().Staleness)/1e6)
		// The hottest keys are the ones the clients refresh most.
		link := ds.tuples[ds.rank[i%16]].Link
		w.lookups++
		if got, ok, err := c.Lookup(link); err != nil || !ok || got.Link != link {
			w.failed++
		}
	}
}

func runWorkload(sp spec, seed int64, window time.Duration, trace bool, binDir, outDir string) (*result, error) {
	ds := buildDataset(sp, seed)
	hc := &http.Client{Timeout: 10 * time.Second}
	defer hc.CloseIdleConnections()

	var g *rig
	var setups []float64
	for rep := 0; rep < setupReps; rep++ {
		if g != nil {
			g.stop()
		}
		var d time.Duration
		var err error
		if g, d, err = setUp(sp, ds, seed, binDir, outDir, hc); err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
	}
	defer g.stop()

	before, err := g.topo.scrape(hc)
	if err != nil {
		return nil, err
	}
	ctxsw0 := g.topo.volCtxSw()
	var sdk0 sdk.Stats
	watch := &sdkWatch{}
	watchStop := make(chan struct{})
	var watchWG sync.WaitGroup
	if g.sdk != nil {
		sdk0 = g.sdk.Stats()
		watchWG.Add(1)
		go func() {
			defer watchWG.Done()
			watch.run(g.sdk, ds, watchStop)
		}()
	}
	load0 := readLoadavg()
	host0 := readHostCPU()
	for _, c := range g.clients {
		c.respBytes.Store(0)
	}

	// One goroutine reads /proc at every slice boundary while the clients
	// run, so CPU can be attributed slice by slice.
	t0 := time.Now()
	snaps := make([]procSnap, slices+1)
	var snapErr error
	var snapWG sync.WaitGroup
	snapWG.Add(1)
	go func() {
		defer snapWG.Done()
		for k := 0; k <= slices; k++ {
			time.Sleep(time.Until(t0.Add(window * time.Duration(k) / slices)))
			var err error
			if snaps[k], err = snapProcs(g.topo); err != nil && snapErr == nil {
				snapErr = err
			}
		}
	}()
	runWindow(sp, ds, g.clients, t0, window)
	snapWG.Wait()
	close(watchStop)
	watchWG.Wait()
	if snapErr != nil {
		return nil, fmt.Errorf("reading /proc: %w", snapErr)
	}
	host1 := readHostCPU()

	after, err := g.topo.scrape(hc)
	if err != nil {
		return nil, err
	}

	res := &result{name: sp.name, endToEnd: map[string]metric{}, perLayer: map[string]metric{}, mustBeZero: map[string]float64{}}
	okPerSlice := make([]float64, slices)
	var respBytes int64
	var okOps float64
	for _, c := range g.clients {
		respBytes += c.respBytes.Load()
		if res.firstErr == nil {
			res.firstErr = c.firstErr
		}
		for _, s := range c.samples {
			k := sliceOf(s.doneNS, int64(window), slices)
			if k < 0 {
				continue
			}
			st := &res.classes[s.class]
			st.attempted++
			if !s.ok {
				st.failed++
				continue
			}
			okOps++
			okPerSlice[k]++
			st.durMS = append(st.durMS, float64(s.durNS)/1e6)
			res.kindDurMS[s.kind] = append(res.kindDurMS[s.kind], float64(s.durNS)/1e6)
			if s.kind == kStream {
				st.firstMS = append(st.firstMS, float64(s.firstNS)/1e6)
			}
		}
	}
	for c := range res.classes {
		sort.Float64s(res.classes[c].durMS)
		sort.Float64s(res.classes[c].firstMS)
	}
	for k := range res.kindDurMS {
		sort.Float64s(res.kindDurMS[k])
	}
	if okOps == 0 {
		return nil, fmt.Errorf("no op succeeded; first failure: %v", res.firstErr)
	}

	// End to end.
	sliceSec := window.Seconds() / slices
	opsPerSec := make([]float64, slices)
	serverCPU := make([]float64, slices)
	selfCPU := make([]float64, slices)
	perDaemonCPU := make([][]float64, len(g.topo.daemons))
	for k := 0; k < slices; k++ {
		opsPerSec[k] = okPerSlice[k] / sliceSec
		for i := range g.topo.daemons {
			d := snaps[k+1].daemonCPU[i] - snaps[k].daemonCPU[i]
			serverCPU[k] += d
			perDaemonCPU[i] = append(perDaemonCPU[i], d)
		}
		selfCPU[k] = snaps[k+1].selfCPU - snaps[k].selfCPU
	}
	e := res.endToEnd
	e["setup_s"] = metric{median(setups), "s"}
	e["query_p50_ms"] = metric{percentile(res.classes[classQuery].durMS, 0.5), "ms"}
	e["first_item_p50_ms"] = metric{percentile(res.classes[classStream].firstMS, 0.5), "ms"}
	e["stream_done_p50_ms"] = metric{percentile(res.classes[classStream].durMS, 0.5), "ms"}
	e["write_p50_ms"] = metric{percentile(res.classes[classWrite].durMS, 0.5), "ms"}
	e["ops_s"] = metric{median(opsPerSec), "1/s"}
	e["server_cpu_ms_per_op"] = metric{perSliceRatio(serverCPU, okPerSlice), "ms"}
	for name, m := range e {
		if math.IsNaN(m.Value) {
			return nil, fmt.Errorf("%s has no samples; first failure: %v", name, res.firstErr)
		}
	}

	// Per layer, live part.
	p := res.perLayer
	var regCPU, routerCPU [][]float64
	peakRSS := 0.0
	for i, d := range g.topo.daemons {
		if d.bin == "routerd" {
			routerCPU = append(routerCPU, perDaemonCPU[i])
		} else {
			regCPU = append(regCPU, perDaemonCPU[i])
		}
		peakRSS += readPeakRSSMB(d.cmd.Process.Pid)
	}
	sumSlices := func(rows [][]float64) []float64 {
		out := make([]float64, slices)
		for _, r := range rows {
			for k, v := range r {
				out[k] += v
			}
		}
		return out
	}
	p["proc.registryd_cpu_ms_per_op"] = metric{perSliceRatio(sumSlices(regCPU), okPerSlice), "ms"}
	p["proc.routerd_cpu_ms_per_op"] = metric{perSliceRatio(sumSlices(routerCPU), okPerSlice), "ms"}
	p["proc.loadgen_cpu_ms_per_op"] = metric{perSliceRatio(selfCPU, okPerSlice), "ms"}
	p["proc.server_peak_rss_mb"] = metric{peakRSS, "MB"}
	p["proc.server_vol_ctxsw_per_op"] = metric{(g.topo.volCtxSw() - ctxsw0) / okOps, "count"}
	steal := 0.0
	if dt := host1.total - host0.total; dt > 0 {
		steal = 100 * (host1.steal - host0.steal) / dt
	}
	p["proc.host_steal_pct"] = metric{steal, "%"}
	p["proc.loadavg_start"] = metric{load0, "count"}

	// Registry counters add up over every registryd; edge counters come
	// from the daemon the clients talk to.
	reg := promSeries{}
	var edge promSeries
	liveEnd := 0.0
	for i, d := range g.topo.daemons {
		delta := promDelta(before[i], after[i])
		if d.base == g.topo.edge {
			edge = delta
		}
		if d.bin == "registryd" {
			for k, v := range delta {
				reg[k] += v
			}
			liveEnd += after[i].sum("wsda_registry_live_tuples")
		}
	}
	ratio := func(a, b float64) float64 {
		if a+b == 0 {
			return 0
		}
		return a / (a + b)
	}
	p["registry.plan_hit_ratio"] = metric{ratio(reg.sum("wsda_registry_plan_hit_total"), reg.sum("wsda_registry_plan_fallback_total")), "ratio"}
	p["registry.view_hit_ratio"] = metric{ratio(reg.sum("wsda_registry_view_hits_total"), reg.sum("wsda_registry_view_misses_total")), "ratio"}
	p["registry.view_rebuilds_per_kop"] = metric{1000 * reg.sum("wsda_registry_view_rebuilds_total") / okOps, "count"}
	p["registry.view_build_ms_per_op"] = metric{1000 * reg.sum("wsda_registry_view_build_seconds_sum") / okOps, "ms"}
	p["registry.xquery_busy_ms_per_op"] = metric{1000 * reg.sum("wsda_registry_xquery_seconds_sum") / okOps, "ms"}
	p["registry.publish_busy_us_per_op"] = metric{1e6 * reg.sum("wsda_registry_publish_seconds_sum") / okOps, "us"}
	p["registry.live_tuples_end"] = metric{liveEnd, "count"}
	p["softstate.journal_truncations"] = metric{reg.sum("wsda_softstate_journal_truncations_total"), "count"}

	p["wsda.query_p90_ms"] = metric{percentile(res.classes[classQuery].durMS, 0.9), "ms"}
	p["wsda.query_p99_ms"] = metric{percentile(res.classes[classQuery].durMS, 0.99), "ms"}
	p["wsda.minquery_p50_ms"] = metric{zeroIfNaN(percentile(res.kindDurMS[kMinQuery], 0.5)), "ms"}
	p["wsda.paged_first_page_p50_ms"] = metric{zeroIfNaN(percentile(res.kindDurMS[kPaged], 0.5)), "ms"}
	p["wsda.other_p50_ms"] = metric{percentile(res.classes[classOther].durMS, 0.5), "ms"}
	p["wsda.resp_bytes_per_op"] = metric{float64(respBytes) / okOps, "B"}
	firstItem := 0.0
	if n := edge.sum("wsda_http_first_item_seconds_count"); n > 0 {
		firstItem = 1000 * edge.sum("wsda_http_first_item_seconds_sum") / n
	}
	p["wsda.server_first_item_mean_ms"] = metric{firstItem, "ms"}

	fanout := 0.0
	if routes := edge.sum("wsda_router_fanout_total"); routes > 0 {
		shards := float64(len(g.topo.daemons) - 1)
		fanout = (edge.sum("wsda_router_fanout_total", `route="scatter"`)*shards +
			edge.sum("wsda_router_fanout_total", `route="single"`)) / routes
	}
	p["shard.fanout_per_query"] = metric{fanout, "count"}
	p["shard.shard_errors"] = metric{edge.sum("wsda_router_shard_errors_total"), "count"}
	p["tenant.admitted_per_op"] = metric{edge.sum("wsda_tenant_admitted_total") / okOps, "count"}
	p["tenant.shed_total"] = metric{edge.sum("wsda_tenant_shed_total") + edge.sum("wsda_tenant_throttled_total"), "count"}

	staleness, invalPerWrite, coldDrops := 0.0, 0.0, 0.0
	if g.sdk != nil {
		st := g.sdk.Stats()
		staleness = median(watch.stalenessMS)
		writes := float64(len(res.classes[classWrite].durMS))
		invalPerWrite = float64(st.Invalidations-sdk0.Invalidations) / writes
		coldDrops = float64(st.ColdDrops - sdk0.ColdDrops)
		if watch.failed > 0 && res.firstErr == nil {
			res.firstErr = fmt.Errorf("%d of %d sdk lookups failed", watch.failed, watch.lookups)
		}
		res.mustBeZero["sdk lookups failed"] = float64(watch.failed)
	}
	p["sdk.staleness_p50_ms"] = metric{staleness, "ms"}
	p["sdk.invalidations_per_write"] = metric{invalPerWrite, "count"}
	p["sdk.cold_drops"] = metric{coldDrops, "count"}

	for _, name := range []string{"shard.shard_errors", "tenant.shed_total", "softstate.journal_truncations", "sdk.cold_drops"} {
		res.mustBeZero[name] = p[name].Value
	}

	if trace {
		g.stop() // the replay must not share the cores with idle daemons' timers
		if err := replay(sp, ds, seed, outDir, p); err != nil {
			return nil, fmt.Errorf("traced replay: %w", err)
		}
	}
	return res, nil
}

func zeroIfNaN(v float64) float64 {
	if math.IsNaN(v) {
		return 0
	}
	return v
}
