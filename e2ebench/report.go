package main

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"time"
)

// report turns one run's windows, SUT snapshots and spans into metrics.
type report struct {
	w        workload
	seed     int64
	setups   []int64
	win      *window // the measured window (traced on a traced run)
	delta    delta
	ref      *window // traced run: the untraced reference window
	spans    []span
	problems []string
}

// finish computes the metrics, prints the human-readable table, and
// returns the result line.
func (r *report) finish(traced bool, out io.Writer) *result {
	res := &result{
		Attempted: r.win.Reads + r.win.Writes,
		Failed:    r.win.Failed + r.win.WriteFail,
		Metrics:   map[string]metric{},
	}
	r.checkValidity()
	if res.Failed > 0 {
		r.problems = append(r.problems, fmt.Sprintf("%d of %d operations failed (workload %s, seed %d); first failures: %s",
			res.Failed, res.Attempted, r.w.Name, r.seed, strings.Join(r.win.Errors, "; ")))
	}
	mode := "untraced"
	if traced {
		mode = "traced"
	}
	fmt.Fprintf(out, "workload %s seed %d (%s): %.1fs window, %d reads (%d ok, %d failed), %d writes (%d failed)\n",
		r.w.Name, r.seed, mode, r.win.Elapsed.Seconds(), r.win.Reads, r.win.OK, r.win.Failed, r.win.Writes, r.win.WriteFail)
	var defs []metricDef
	var vals map[string]float64
	if traced {
		defs, vals = perLayer, r.layerMetrics()
		r.printReconciliation(out, vals)
	} else {
		defs, vals = endToEnd, r.endToEndMetrics(out)
	}
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			r.problems = append(r.problems, fmt.Sprintf("metric %s was not measured", d.Name))
			v = 0
		}
		res.Metrics[d.Name] = metric{Value: v, Unit: d.Unit}
		fmt.Fprintf(out, "  %-36s %14.6g %s\n", d.Name, v, d.Unit)
	}
	if !traced {
		fmt.Fprintf(out, "  %-36s %14.6g %s (%d of %d operations; not in the result's metrics)\n", "error_rate",
			ratio(float64(res.Failed), float64(res.Attempted)), "ratio", res.Failed, res.Attempted)
	}
	for _, p := range r.problems {
		fmt.Fprintln(out, "  PROBLEM:", p)
	}
	res.Correct = len(r.problems) == 0
	return res
}

// failed reports a run the SUT stopped answering in: every operation
// attempted so far counts, and at least one failed.
func (r *report) failed(problem string, out io.Writer) *result {
	res := &result{Attempted: 1, Failed: 1, Metrics: map[string]metric{}}
	for _, w := range []*window{r.ref, r.win} {
		if w != nil {
			res.Attempted += w.Reads + w.Writes
			res.Failed += w.Failed + w.WriteFail
		}
	}
	fmt.Fprintf(out, "workload %s seed %d: %d operations attempted, %d failed\n", r.w.Name, r.seed, res.Attempted, res.Failed)
	for _, p := range append(r.problems, problem) {
		fmt.Fprintln(out, "  PROBLEM:", p)
	}
	return res
}

// checkValidity asserts the property each workload was chosen for, so a
// run that stops exercising its layer fails loudly.
func (r *report) checkValidity() {
	gets := float64((r.delta.B.Store.Hits + r.delta.B.Store.Misses) - (r.delta.A.Store.Hits + r.delta.A.Store.Misses))
	diskShare := ratio(float64(r.delta.B.Tier.DiskHits-r.delta.A.Tier.DiskHits), gets)
	switch r.w.Expect {
	case diskIdle:
		if diskShare >= 0.01 {
			r.problems = append(r.problems, fmt.Sprintf("%s: %.3f of fragment GETs hit the disk tier, want < 0.01", r.w.Name, diskShare))
		}
	case diskBusy:
		if diskShare <= 0.5 {
			r.problems = append(r.problems, fmt.Sprintf("%s: %.3f of fragment GETs hit the disk tier, want > 0.5 (the coherency fabric flushed the fragment store %d times)",
				r.w.Name, diskShare, r.delta.B.StoreFlushes-r.delta.A.StoreFlushes))
		}
	case pageTier:
		if share := ratio(float64(r.win.XCache["PAGE"]), float64(r.win.OK)); share <= 0.5 {
			r.problems = append(r.problems, fmt.Sprintf("%s: the page tier served %.3f of reads, want > 0.5", r.w.Name, share))
		}
	}
}

// endToEndMetrics computes the untraced metrics and prints the latency
// sample counts and error rate beside them.
func (r *report) endToEndMetrics(out io.Writer) map[string]float64 {
	a, b := r.delta.A, r.delta.B
	reads := float64(r.win.Reads)
	lat := sortedCopy(r.win.Latency)
	top := highestSupported(len(lat))
	fmt.Fprintf(out, "  latency samples n=%d; highest supported percentile %s = %.4g ms\n",
		len(lat), fmt.Sprintf("p%g", top), ms(quantile(lat, top/100)))
	var ladder []string
	for _, p := range []float64{50, 90, 95, 98, 99, 99.5, 99.9} {
		if p <= top {
			ladder = append(ladder, fmt.Sprintf("%s=%.4g", fmt.Sprintf("p%g", p), ms(quantile(lat, p/100))))
		}
	}
	lateness := sortedCopy(r.win.Lateness)
	fmt.Fprintf(out, "  latency ms: %s; generator lateness ms: p50=%.4g p99=%.4g\n", strings.Join(ladder, " "),
		ms(quantile(lateness, 0.5)), ms(quantile(lateness, 0.99)))
	fmt.Fprintf(out, "  tiers: fragment GETs %d (misses %d, disk hits %d, disk misses %d, promotions %d, demotions %d, pool loads %d, write errors %d); stale fallbacks %d; fragment-store flushes %d; page-tier share %.3f\n",
		(b.Store.Hits+b.Store.Misses)-(a.Store.Hits+a.Store.Misses), b.Store.Misses-a.Store.Misses,
		b.Tier.DiskHits-a.Tier.DiskHits, b.Tier.Disk.Misses-a.Tier.Disk.Misses,
		b.Tier.Promotions-a.Tier.Promotions, b.Tier.Demotions-a.Tier.Demotions,
		b.Tier.Disk.PoolLoads-a.Tier.Disk.PoolLoads, b.Tier.Disk.WriteErrors-a.Tier.Disk.WriteErrors,
		b.StaleFallbacks-a.StaleFallbacks, b.StoreFlushes-a.StoreFlushes, ratio(float64(r.win.XCache["PAGE"]), float64(r.win.OK)))
	if len(lat) < 1000 {
		r.problems = append(r.problems, fmt.Sprintf("%d latency samples cannot support p99", len(lat)))
	}
	return map[string]float64{
		"throughput_rps":         float64(r.win.OK) / r.win.Elapsed.Seconds(),
		"latency_p50_ms":         ms(quantile(lat, 0.50)),
		"latency_p99_ms":         ms(quantile(lat, 0.99)),
		"origin_fetches_per_req": ratio(float64(b.OriginFetches-a.OriginFetches), reads),
		"origin_bytes_per_req":   ratio(float64(b.OriginBytes-a.OriginBytes), reads),
		"sut_cpu_ms_per_req":     ratio(ms(float64(b.CPUNs-a.CPUNs)), reads),
		"sut_alloc_kb_per_req":   ratio(float64(b.AllocBytes-a.AllocBytes)/1024, reads),
		"sut_rss_mb":             float64(b.MaxRSSKB) / 1024,
		"setup_s":                quantile(sortedCopy(r.setups), 0.5) / float64(time.Second),
	}
}

// layerMetrics computes the traced run's per-layer metrics. Spans that
// carry a request id (handler, fetch, origin handler) are attributed per
// request; fragment-store and page-tier spans carry no context, so they
// are attributed per request in aggregate: their total busy time over
// the number of requests the handler saw.
func (r *report) layerMetrics() map[string]float64 {
	a, b := r.delta.A, r.delta.B
	var (
		handlers, fetches, origins          int
		handlerNs, fetchNs, originNs, tmplB float64
		gets, getHits, sets                 int
		getDur, setDur, pageGetDur, repoDur []int64
		fragBusy, pageBusy                  float64
		pageGets, pageHits, pagePuts        int
		eventNs                             = map[uint64]float64{}
	)
	for _, s := range r.spans {
		d := float64(s.Dur)
		switch s.Kind {
		case kHandler:
			handlers++
			handlerNs += d
		case kFetch:
			fetches++
			fetchNs += d
			tmplB += float64(s.Bytes)
		case kOrigin:
			origins++
			originNs += d
		case kFragGet:
			gets++
			getHits += int(s.Hit)
			getDur = append(getDur, s.Dur)
			fragBusy += d
		case kFragSet:
			sets++
			setDur = append(setDur, s.Dur)
			fragBusy += d
		case kPageGet:
			pageGets++
			pageHits += int(s.Hit)
			pageGetDur = append(pageGetDur, s.Dur)
			pageBusy += d
		case kPagePut:
			pagePuts++
			pageBusy += d
		case kPageScratch:
			pageBusy += d
		case kCoherency:
			eventNs[s.ID] += d
		case kRepo:
			repoDur = append(repoDur, s.Dur)
		}
	}
	// Every read of the window passes the traced handler exactly once:
	// the trace spans the whole window and nothing else reaches the proxy.
	if handlers != r.win.Reads {
		r.problems = append(r.problems, fmt.Sprintf("trace: %d handler spans for %d reads", handlers, r.win.Reads))
	}
	n := float64(handlers)
	us := func(ns float64) float64 { return ns / float64(time.Microsecond) }
	clientMean := mean(r.win.Latency)
	// Overhead compares medians: a few host stalls move a window's mean
	// by more than the decorators cost.
	var overhead float64
	if r.ref != nil {
		overhead = 100 * (ratio(quantile(sortedCopy(r.win.Latency), 0.5), quantile(sortedCopy(r.ref.Latency), 0.5)) - 1)
	}
	handlerPer := ratio(handlerNs, n)
	originPer := ratio(fetchNs, n)
	fragPer := ratio(fragBusy, n)
	pagePer := ratio(pageBusy, n)
	var eventsNs float64
	for _, v := range eventNs {
		eventsNs += v
	}
	events := float64(len(eventNs))
	secs := r.win.Elapsed.Seconds()
	tierGets := float64((b.Store.Hits + b.Store.Misses) - (a.Store.Hits + a.Store.Misses))
	poolLoads := float64(b.Tier.Disk.PoolLoads - a.Tier.Disk.PoolLoads)
	poolHits := float64(b.Tier.Disk.PoolHits - a.Tier.Disk.PoolHits)
	planHits := float64(b.Plans.Hits - a.Plans.Hits)
	planMisses := float64(b.Plans.Misses - a.Plans.Misses)
	bemLookups := float64(b.BEM.Lookups - a.BEM.Lookups)
	bemHits := float64(b.BEM.Hits - a.BEM.Hits)
	inval := func(s snapshot) int64 {
		return s.BEM.TTLInvalidations + s.BEM.DataInvalidations + s.BEM.ExplicitInvalidations + s.BEM.StaleInvalidations
	}
	return map[string]float64{
		"loadgen.lateness_p99_ms":             ms(quantile(sortedCopy(r.win.Lateness), 0.99)),
		"dpc.client_us_per_req":               us(clientMean),
		"dpc.handler_us_per_req":              us(handlerPer),
		"dpc.self_us_per_req":                 us(handlerPer - originPer - fragPer - pagePer),
		"dpc.residual_us_per_req":             us(clientMean - handlerPer),
		"dpc.xcache_page_share":               ratio(float64(r.win.XCache["PAGE"]), float64(r.win.OK)),
		"dpc.stale_fallbacks_per_req":         ratio(float64(b.StaleFallbacks-a.StaleFallbacks), n),
		"tmplplan.hit_ratio":                  ratio(planHits, planHits+planMisses),
		"tmplplan.compiles":                   float64(b.Plans.Compiles - a.Plans.Compiles),
		"origin.fetches_per_req":              ratio(float64(fetches), n),
		"origin.rt_us_per_req":                us(originPer),
		"origin.rt_us_per_fetch":              us(ratio(fetchNs, float64(fetches))),
		"origin.handler_us_per_fetch":         us(ratio(originNs, float64(origins))),
		"origin.transport_us_per_fetch":       us(ratio(fetchNs, float64(fetches)) - ratio(originNs, float64(origins))),
		"origin.template_bytes_per_fetch":     ratio(tmplB, float64(fetches)),
		"bem.hit_ratio":                       ratio(bemHits, bemLookups),
		"bem.invalidations_per_s":             ratio(float64(inval(b)-inval(a)), secs),
		"fragstore.gets_per_req":              ratio(float64(gets), n),
		"fragstore.get_ns_p50":                quantile(sortedCopy(getDur), 0.50),
		"fragstore.get_ns_p99":                quantile(sortedCopy(getDur), 0.99),
		"fragstore.sets_per_req":              ratio(float64(sets), n),
		"fragstore.set_ns_p99":                quantile(sortedCopy(setDur), 0.99),
		"fragstore.busy_us_per_req":           us(fragPer),
		"fragstore.hit_ratio":                 ratio(float64(getHits), float64(gets)),
		"fragstore.tiered.disk_hit_share":     ratio(float64(b.Tier.DiskHits-a.Tier.DiskHits), tierGets),
		"fragstore.tiered.promotions_per_req": ratio(float64(b.Tier.Promotions-a.Tier.Promotions), n),
		"fragstore.tiered.demotions_per_req":  ratio(float64(b.Tier.Demotions-a.Tier.Demotions), n),
		"diskstore.pool_loads_per_req":        ratio(poolLoads, n),
		"diskstore.pool_hit_ratio":            ratio(poolHits, poolHits+poolLoads),
		"diskstore.file_pages":                float64(b.Tier.Disk.Pages),
		"diskstore.write_errors":              float64(b.Tier.Disk.WriteErrors - a.Tier.Disk.WriteErrors),
		"pagecache.hit_ratio":                 ratio(float64(pageHits), float64(pageGets)),
		"pagecache.get_ns_p50":                quantile(sortedCopy(pageGetDur), 0.50),
		"pagecache.puts_per_req":              ratio(float64(pagePuts), n),
		"pagecache.busy_us_per_req":           us(pagePer),
		"depindex.edges":                      float64(b.DepIndex.Edges),
		"depindex.fallback_flushes":           float64(b.Fallbacks - a.Fallbacks),
		"coherency.events_per_s":              ratio(events, secs),
		"coherency.apply_us_per_event":        us(ratio(eventsNs, events)),
		"coherency.pages_dropped_per_event":   ratio(float64(b.PagesDropped-a.PagesDropped), events),
		"repository.update_us_p50":            us(quantile(sortedCopy(repoDur), 0.50)),
		"runtime.gc_cpu_fraction":             ratio(b.GCCPUSeconds-a.GCCPUSeconds, b.CPUSeconds-a.CPUSeconds),
		"runtime.gc_per_kreq":                 ratio(float64(b.GCCycles-a.GCCycles), n/1000),
		"trace.overhead_pct":                  overhead,
	}
}

// printReconciliation prints how the mean client latency splits across
// the layers: dpc self + origin + fragment store + page tier = handler,
// and handler + residual = client.
func (r *report) printReconciliation(out io.Writer, v map[string]float64) {
	parts := []struct{ name, key string }{
		{"dpc self", "dpc.self_us_per_req"},
		{"origin round trip", "origin.rt_us_per_req"},
		{"fragment store (aggregate)", "fragstore.busy_us_per_req"},
		{"page tier (aggregate)", "pagecache.busy_us_per_req"},
		{"residual (client - handler)", "dpc.residual_us_per_req"},
	}
	client := v["dpc.client_us_per_req"]
	fmt.Fprintf(out, "  mean client latency %.2f us per request, split across layers:\n", client)
	var sum float64
	for _, p := range parts {
		sum += v[p.key]
		fmt.Fprintf(out, "    %-30s %10.2f us  %5.1f%%\n", p.name, v[p.key], 100*ratio(v[p.key], client))
	}
	fmt.Fprintf(out, "    %-30s %10.2f us\n", "sum", sum)
	fmt.Fprintln(out, "  dpc self (handler minus the layers below it) and the residual (client minus handler) are")
	fmt.Fprintln(out, "  differences, so the parts add up to the client latency by construction. Fragment-store and")
	fmt.Fprintln(out, "  page-tier calls carry no request context: their spans have no parent and are attributed per")
	fmt.Fprintln(out, "  request in aggregate (total busy time / requests). Plan prefetch runs store GETs in parallel,")
	fmt.Fprintln(out, "  so their busy time can exceed the wall time it covers, and dpc self shrinks, even below 0.")
	keys := make([]string, 0, len(r.win.XCache))
	for k := range r.win.XCache {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var mix []string
	for _, k := range keys {
		mix = append(mix, fmt.Sprintf("%s=%d", k, r.win.XCache[k]))
	}
	fmt.Fprintf(out, "  X-Cache mix: %s\n", strings.Join(mix, " "))
}
