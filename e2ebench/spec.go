package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
)

// The deployment every workload runs against: one synthetic site scaled
// well past Table 2, served by one origin and one proxy configured like
// dpcd's defaults plus -store tiered -evict lru -pagecache.
const (
	sitePages        = 1000
	siteFragsPerPage = 16
	siteFragBytes    = 1024
	siteCacheability = 0.6
	// storeCapacity is the BEM's and the proxy's slot count; it covers
	// every fragment of the site, so the directory never evicts.
	storeCapacity = 16384
	// ramDivisor sizes the RAM tier at 1/ramDivisor of the site's
	// cacheable fragment bytes.
	ramDivisor = 8
	// pageBytes is every synthetic page's exact body length.
	pageBytes = siteFragsPerPage * siteFragBytes
)

// workload is one named traffic mix. Only the traffic differs between
// workloads; the system under test is the same.
type workload struct {
	Name string
	Why  string
	// Registered sends X-User on every request, which bypasses the page
	// tier; anonymous requests may be served whole from it.
	Registered bool
	// Pages is how many pages (0..Pages-1) the Zipf ranking spans.
	Pages int
	// Alpha is the Zipf exponent of page popularity.
	Alpha float64
	// OpenRate is the Poisson arrival rate of an open loop in requests
	// per second; 0 runs a closed loop over the connections.
	OpenRate float64
	// PacedRate caps a closed loop's total rate in requests per second:
	// each connection waits out the rest of its period after a response
	// (0 = no wait).
	PacedRate float64
	// WriteRate is the rate of seeded source-row writes beside the reads
	// (0 = none).
	WriteRate float64
	// Expect is the property the workload was chosen for; every run
	// asserts it.
	Expect expectation
}

type expectation int

const (
	diskIdle expectation = iota // under 1% of fragment GETs hit the disk tier
	diskBusy                    // over half of fragment GETs hit the disk tier
	pageTier                    // the page tier serves over half of the reads
)

// maxConns is the number of load-generator connections to the proxy on
// a machine with at least that many CPUs (see clientConns).
const maxConns = 2

// hotPages is the registered-hot page subset: its cacheable fragments
// (about 960 KiB) fit the RAM tier (1.2 MiB), so the disk tier idles.
const hotPages = 100

// workloads are the benchmark's gated workloads, in BENCHMARK.json order.
var workloads = []workload{
	{
		Name:       "registered-hot",
		Why:        "closed loop, X-User, Zipf 1.0 over 100 pages whose fragments fit the RAM tier: origin templates assembled from RAM-resident fragments",
		Registered: true, Pages: hotPages, Alpha: 1.0, Expect: diskIdle,
	},
	{
		Name:       "anonymous-churn",
		Why:        "closed loop paced to 6400/s, anonymous GETs, Zipf 1.0 over the 100 hot pages, beside 50 writes/s: the page tier serves reads; writes drive BEM, hub, depindex, page drops",
		Registered: false, Pages: hotPages, Alpha: 1.0, PacedRate: churnRate, WriteRate: churnWrites, Expect: pageTier,
	},
}

// churnRate is anonymous-churn's offered read rate: about half of what
// the SUT sustains on that traffic unpaced (anonymous-churn-max). Paced,
// the workload's throughput_rps follows this offered rate, a little
// under it because a send after a response that outlasted the pacing
// period goes late; it falls further only as the proxy slows, and a
// faster proxy shows in latency and CPU, not in throughput. churnWrites
// is its fixed write rate.
const (
	churnRate   = 6400
	churnWrites = 50
)

// ungated workloads run by name but stay out of BENCHMARK.json.
//
// anonymous-churn-max is anonymous-churn unpaced: its throughput_rps is
// the rate the SUT sustains on that traffic, the basis of churnRate.
// Unpaced, the closed loop saturates both CPUs of a 2-vCPU machine, so
// its figures follow the host's contention.
//
// anonymous-churn-open is anonymous-churn as an open loop: Poisson
// arrivals at churnRate, each read timed from the instant it was due. On
// a shared 2-vCPU machine its percentiles follow the host's scheduling
// stalls (whole-VM pauses of 10-70 ms delay every arrival due during
// them): ten seeded runs spread by up to 0.28 of the median in p99 and
// 0.22 in p50. In the gated, paced closed loop a stall delays only the
// reads in flight.
var ungated = []workload{
	// registered-cold is the disk-tier workload, left out of the gate
	// because the program makes it unsteady. The tiered store can lose an
	// entry in the window between its tiers (a promotion deletes the disk
	// copy before it puts the RAM copy; a demotion evicts the RAM copy
	// before it writes the disk copy), so a Get misses both and the
	// request falls back to a bypass whose stale report makes the BEM
	// broadcast an invalidation. coherency.Hub.BroadcastEvent numbers an
	// event under its lock but applies it after releasing the lock, so two
	// concurrent broadcasts can reach a subscriber out of order; the
	// fragment store's StoreSubscriber reads the reorder as a lost event
	// and flushes both tiers, every later GET misses, and the stale
	// reports that follow set off more reorders. In ten seeded 30 s runs
	// three were caught in such a cascade (224, 260 and 835 fragment-store
	// flushes; none in the other seven), so throughput spread by 0.45 of
	// its median and p99 by 1.3, and the worst run failed its validity
	// check. It still runs by name, with the same check.
	{
		Name:       "registered-cold",
		Why:        "closed loop, X-User, Zipf 0.5 over all 1000 pages: fragment working set is 8x the RAM tier, so GETs demote and promote across the disk tier",
		Registered: true, Pages: sitePages, Alpha: 0.5, Expect: diskBusy,
	},
	{
		Name:       "anonymous-churn-max",
		Why:        "anonymous-churn as an unpaced closed loop: the read rate the SUT sustains beside the writes",
		Registered: false, Pages: hotPages, Alpha: 1.0, WriteRate: churnWrites, Expect: pageTier,
	},
	{
		Name:       "anonymous-churn-open",
		Why:        "anonymous-churn as an open loop: Poisson arrivals at the paced rate, reads timed from their due instant",
		Registered: false, Pages: hotPages, Alpha: 1.0, OpenRate: churnRate, WriteRate: churnWrites, Expect: pageTier,
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range append(workloads, ungated...) {
		if w.Name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// metricDef names one reported metric. Bound is set only on end-to-end
// metrics: the share of the parent's median by which the metric may get
// worse before a change counts as a regression.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the proxy sees, measured with
// tracing off. error_rate is printed with them but is not a bounded
// metric: it is 0 on a healthy run, and failures already land in the
// result's "failed" count. On a shared 2-vCPU machine the host's speed
// drifts between runs, and the timings with it (ten seeded runs of one
// commit spread by up to about 0.2 of the median), so their bounds are
// the contract's widest. On anonymous-churn the writes run at a fixed
// rate beside the reads, so the per-read origin and allocation figures
// move with the read rate.
var endToEnd = []metricDef{
	{"throughput_rps", "1/s", "higher", 0.25},
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"latency_p99_ms", "ms", "lower", 0.25},
	{"origin_fetches_per_req", "count", "lower", 0.15},
	{"origin_bytes_per_req", "bytes", "lower", 0.15},
	{"sut_cpu_ms_per_req", "ms", "lower", 0.25},
	{"sut_alloc_kb_per_req", "KiB", "lower", 0.10},
	{"sut_rss_mb", "MiB", "lower", 0.15},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer are the traced run's metrics, one block per layer boundary.
var perLayer = []metricDef{
	{"loadgen.lateness_p99_ms", "ms", "lower", 0},
	{"dpc.client_us_per_req", "us", "lower", 0},
	{"dpc.handler_us_per_req", "us", "lower", 0},
	{"dpc.self_us_per_req", "us", "lower", 0},
	{"dpc.residual_us_per_req", "us", "lower", 0},
	{"dpc.xcache_page_share", "ratio", "higher", 0},
	{"dpc.stale_fallbacks_per_req", "count", "lower", 0},
	{"tmplplan.hit_ratio", "ratio", "higher", 0},
	{"tmplplan.compiles", "count", "lower", 0},
	{"origin.fetches_per_req", "count", "lower", 0},
	{"origin.rt_us_per_req", "us", "lower", 0},
	{"origin.rt_us_per_fetch", "us", "lower", 0},
	{"origin.handler_us_per_fetch", "us", "lower", 0},
	{"origin.transport_us_per_fetch", "us", "lower", 0},
	{"origin.template_bytes_per_fetch", "bytes", "lower", 0},
	{"bem.hit_ratio", "ratio", "higher", 0},
	{"bem.invalidations_per_s", "1/s", "lower", 0},
	{"fragstore.gets_per_req", "count", "lower", 0},
	{"fragstore.get_ns_p50", "ns", "lower", 0},
	{"fragstore.get_ns_p99", "ns", "lower", 0},
	{"fragstore.sets_per_req", "count", "lower", 0},
	{"fragstore.set_ns_p99", "ns", "lower", 0},
	{"fragstore.busy_us_per_req", "us", "lower", 0},
	{"fragstore.hit_ratio", "ratio", "higher", 0},
	{"fragstore.tiered.disk_hit_share", "ratio", "lower", 0},
	{"fragstore.tiered.promotions_per_req", "count", "lower", 0},
	{"fragstore.tiered.demotions_per_req", "count", "lower", 0},
	{"diskstore.pool_loads_per_req", "count", "lower", 0},
	{"diskstore.pool_hit_ratio", "ratio", "higher", 0},
	{"diskstore.file_pages", "count", "lower", 0},
	{"diskstore.write_errors", "count", "lower", 0},
	{"pagecache.hit_ratio", "ratio", "higher", 0},
	{"pagecache.get_ns_p50", "ns", "lower", 0},
	{"pagecache.puts_per_req", "count", "lower", 0},
	{"pagecache.busy_us_per_req", "us", "lower", 0},
	{"depindex.edges", "count", "lower", 0},
	{"depindex.fallback_flushes", "count", "lower", 0},
	{"coherency.events_per_s", "1/s", "lower", 0},
	{"coherency.apply_us_per_event", "us", "lower", 0},
	{"coherency.pages_dropped_per_event", "count", "lower", 0},
	{"repository.update_us_p50", "us", "lower", 0},
	{"runtime.gc_cpu_fraction", "ratio", "lower", 0},
	{"runtime.gc_per_kreq", "count", "lower", 0},
	{"trace.overhead_pct", "%", "lower", 0},
}

// manifest is the BENCHMARK.json document.
type manifest struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []manifestWork `json:"workloads"`
	EndToEnd   []metricDef    `json:"end_to_end"`
	PerLayer   []metricDef    `json:"per_layer"`
}

type manifestWork struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// runSeconds is the measured window of one run. The host's speed drifts
// within tens of seconds; on anonymous-churn, ten seeded runs of one
// commit spread by 0.18-0.29 of the median in p99 at 20 s windows and by
// 0.09-0.15 at 30 s; on a busier host five runs at 30 s spread by 0.44,
// and five at 45 s by 0.10.
const runSeconds = 40

func buildManifest() manifest {
	m := manifest{
		Command:    []string{"bash", "e2ebench/run.sh"},
		Paths:      []string{"e2ebench"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer, // no bounds: Bound is omitted when zero
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, manifestWork{w.Name, w.Why})
	}
	return m
}

// manifestJSON renders BENCHMARK.json exactly as committed.
func manifestJSON() ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	enc.SetEscapeHTML(false)
	if err := enc.Encode(buildManifest()); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func writeManifest(path string) error {
	b, err := manifestJSON()
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
