package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime/metrics"
	"strconv"
	"sync/atomic"
	"syscall"
	"time"

	"dpcache/internal/bem"
	"dpcache/internal/coherency"
	"dpcache/internal/core"
	"dpcache/internal/depindex"
	"dpcache/internal/dpc"
	"dpcache/internal/fragstore"
	"dpcache/internal/origin"
	"dpcache/internal/repository"
	"dpcache/internal/site"
	"dpcache/internal/tmpl"
	"dpcache/internal/tmplplan"
)

// roleEnv selects the system-under-test role when the benchmark binary
// re-executes itself (one binary is both load generator and SUT).
const roleEnv = "E2EBENCH_ROLE"

// sut is the system under test: one origin and one proxy over loopback
// TCP, built through the public constructors with dpcd's defaults.
type sut struct {
	repo  *repository.Repo
	mon   *bem.Monitor
	proxy *dpc.Proxy
	store fragstore.FragmentStore // the tiered store itself, never decorated
	tiers []*coherency.TierSubscriber
	frags *coherency.StoreSubscriber
	meter *originMeter
	link  atomic.Int64 // bytes on the origin↔proxy connections
	rec   *recorder

	handler  http.Handler // the proxy's front handler
	originLn net.Listener
}

// snapshot is the SUT's state at one instant; the load generator takes
// one at each edge of a measured window and reports the deltas.
type snapshot struct {
	CPUNs          int64                 `json:"cpu_ns"`
	AllocBytes     uint64                `json:"alloc_bytes"`
	GCCycles       uint64                `json:"gc_cycles"`
	GCCPUSeconds   float64               `json:"gc_cpu_seconds"`
	CPUSeconds     float64               `json:"cpu_seconds"`
	MaxRSSKB       int64                 `json:"max_rss_kb"`
	OriginFetches  int64                 `json:"origin_fetches"`
	OriginBytes    int64                 `json:"origin_bytes"`
	StaleFallbacks int64                 `json:"stale_fallbacks"`
	PagesDropped   int64                 `json:"pages_dropped"`
	Fallbacks      int64                 `json:"fallback_flushes"`
	StoreFlushes   int64                 `json:"store_flushes"`
	Store          fragstore.Stats       `json:"store"`
	Tier           fragstore.TieredStats `json:"tier"`
	Plans          tmplplan.CacheStats   `json:"plans"`
	BEM            bem.Stats             `json:"bem"`
	DepIndex       depindex.Stats        `json:"depindex"`
}

// runSUT serves until SIGTERM. It prints one line, "READY <proxy addr>
// <control addr>", once both listeners accept connections.
func runSUT(args []string) error {
	fs := flag.NewFlagSet("sut", flag.ContinueOnError)
	heap := fs.String("heap", "", "fragment store heap file (recreated empty)")
	layers := fs.Bool("layers", false, "wrap each layer's public interface in timing decorators")
	corrupt := fs.Int("corrupt-every", 0, "corrupt every Nth proxy response body (self-test of the output check)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	s, err := newSUT(*heap, *layers, *corrupt)
	if err != nil {
		return err
	}
	proxyLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	ctrlLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	go func() { _ = http.Serve(s.originLn, s.meter) }()
	go func() { _ = http.Serve(proxyLn, s.handler) }()
	go func() { _ = http.Serve(ctrlLn, s.controlMux()) }()
	fmt.Printf("READY %s %s\n", proxyLn.Addr(), ctrlLn.Addr())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, os.Interrupt)
	<-sig
	return nil
}

// newSUT wires the deployment: origin.New + bem + repository +
// site.BuildSynthetic, then dpc.New, then coherency.NewHub +
// core.ProxySubscribers. With layers set, the proxy's injectable
// interfaces (Store, PageCacheStore, Transport, the handler, and each
// hub subscriber) are wrapped in the benchmark's timing decorators; they
// record only while the recorder is enabled.
func newSUT(heap string, layers bool, corruptEvery int) (*sut, error) {
	if heap == "" {
		return nil, fmt.Errorf("sut: heap file path is required")
	}
	s := &sut{rec: &recorder{}}
	s.repo = repository.New(repository.LatencyModel{})
	mon, err := bem.New(bem.Config{Capacity: storeCapacity})
	if err != nil {
		return nil, err
	}
	mon.BindRepo(s.repo)
	s.mon = mon
	org, err := origin.New(origin.Config{Repo: s.repo, Monitor: mon, Codec: tmpl.Binary{}})
	if err != nil {
		return nil, err
	}
	sc, man, err := site.BuildSynthetic(siteConfig(), s.repo)
	if err != nil {
		return nil, err
	}
	if err := org.Register(sc); err != nil {
		return nil, err
	}
	var cacheable int64
	for j, ok := range man.Cacheable {
		if ok {
			cacheable += int64(man.FragmentBytes[j])
		}
	}

	if err := os.Remove(heap); err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	store, err := fragstore.New(fragstore.Config{
		Backend:    fragstore.BackendTiered,
		Capacity:   storeCapacity,
		ByteBudget: cacheable / ramDivisor,
		Eviction:   "lru",
		DiskPath:   heap,
	})
	if err != nil {
		return nil, err
	}
	s.store = store
	// The page tier's store as pagecache builds it by default (1024
	// entries, LRU), constructed here so the traced run can decorate it.
	pages, err := fragstore.NewKeyed(fragstore.KeyedConfig{MaxEntries: 1024})
	if err != nil {
		return nil, err
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s.originLn = countingListener{Listener: ln, n: &s.link}
	s.meter = &originMeter{h: org, rec: s.rec}

	var (
		proxyStore fragstore.FragmentStore = store
		pageStore  fragstore.Keyed         = pages
		transport  http.RoundTripper       = &http.Transport{MaxIdleConnsPerHost: 64}
	)
	if layers {
		proxyStore = &tracedStore{FragmentStore: store, rec: s.rec}
		pageStore = &tracedKeyed{Keyed: pages, rec: s.rec}
		transport = &tracedTransport{base: transport, rec: s.rec}
	}
	proxy, err := dpc.New(dpc.Config{
		OriginURL:       "http://" + ln.Addr().String(),
		Capacity:        storeCapacity,
		Store:           proxyStore,
		Codec:           tmpl.Binary{},
		Strict:          true,
		Coalesce:        true,
		Stream:          true,
		PageCache:       true,
		PageCacheStore:  pageStore,
		PlanCache:       true,
		PublishInterval: 10 * time.Second,
		Transport:       transport,
	})
	if err != nil {
		return nil, err
	}
	s.proxy = proxy

	hub := coherency.NewHub(mon)
	for _, sub := range core.ProxySubscribers(proxy, proxy.Registry()) {
		if ts, ok := sub.(*coherency.TierSubscriber); ok {
			s.tiers = append(s.tiers, ts)
		}
		if ss, ok := sub.(*coherency.StoreSubscriber); ok {
			s.frags = ss
		}
		if layers {
			sub = tracedSub{Subscriber: sub, rec: s.rec}
		}
		hub.Subscribe(sub)
	}

	s.handler = proxy
	if layers {
		s.handler = &tracedHandler{h: s.handler, rec: s.rec}
	}
	if corruptEvery > 0 {
		s.handler = &corruptor{h: s.handler, every: int64(corruptEvery)}
	}
	return s, nil
}

func siteConfig() site.SyntheticConfig {
	return site.SyntheticConfig{
		Pages:            sitePages,
		FragmentsPerPage: siteFragsPerPage,
		FragmentBytes:    siteFragBytes,
		Cacheability:     siteCacheability,
	}
}

// controlMux is the benchmark-owned control surface, on its own listener
// so the proxy receives only generated requests.
//
//	POST /touch?frag=J&v=N   bump fragment J's source row to version N
//	GET  /snapshot           counters for window deltas (JSON)
//	POST /trace/start        clear and enable the span recorder
//	POST /trace/stop?out=P   disable it and write the spans to file P
func (s *sut) controlMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /touch", func(w http.ResponseWriter, r *http.Request) {
		j, err1 := strconv.Atoi(r.URL.Query().Get("frag"))
		v, err2 := strconv.ParseUint(r.URL.Query().Get("v"), 10, 64)
		if err1 != nil || err2 != nil || j < 0 || j >= sitePages*siteFragsPerPage {
			http.Error(w, "bad frag or v", http.StatusBadRequest)
			return
		}
		t0 := time.Now()
		site.TouchFragment(s.repo, j, strconv.FormatUint(v, 10))
		s.rec.timed(kRepo, false, t0, 0)
		w.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc("GET /snapshot", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(s.snapshot())
	})
	mux.HandleFunc("POST /trace/start", func(w http.ResponseWriter, r *http.Request) {
		s.rec.enable()
		w.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc("POST /trace/stop", func(w http.ResponseWriter, r *http.Request) {
		spans := s.rec.disable()
		if err := writeSpans(r.URL.Query().Get("out"), spans); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		fmt.Fprintln(w, len(spans))
	})
	return mux
}

var runtimeSamples = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func (s *sut) snapshot() snapshot {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	samples := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		samples[i].Name = name
	}
	metrics.Read(samples)
	snap := snapshot{
		CPUNs:          ru.Utime.Nano() + ru.Stime.Nano(),
		AllocBytes:     samples[0].Value.Uint64(),
		GCCycles:       samples[1].Value.Uint64(),
		GCCPUSeconds:   samples[2].Value.Float64(),
		CPUSeconds:     samples[3].Value.Float64(),
		MaxRSSKB:       ru.Maxrss,
		OriginFetches:  s.meter.fetches.Load(),
		OriginBytes:    s.link.Load(),
		StaleFallbacks: s.proxy.Registry().Counter("dpc.stale_fallbacks").Value(),
		PagesDropped:   s.proxy.Registry().Counter("dpc.pagecache_invalidations").Value(),
		Store:          s.store.Stats(),
		Tier:           s.store.(fragstore.DiskTiered).TierStats(),
		Plans:          s.proxy.Plans().Stats(),
		BEM:            s.mon.Stats(),
		DepIndex:       s.proxy.DepIndex().Stats(),
	}
	for _, t := range s.tiers {
		snap.Fallbacks += int64(t.Fallbacks())
	}
	if s.frags != nil {
		snap.StoreFlushes = int64(s.frags.Flushes())
	}
	return snap
}

// corruptor flips one byte inside the first fragment marker of every
// Nth response body. It exists only so the self-test can show that the
// load generator's output check catches a corrupted page.
type corruptor struct {
	h     http.Handler
	every int64
	n     atomic.Int64
}

func (c *corruptor) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if c.n.Add(1)%c.every != 0 {
		c.h.ServeHTTP(w, r)
		return
	}
	c.h.ServeHTTP(&corruptWriter{ResponseWriter: w}, r)
}

type corruptWriter struct {
	http.ResponseWriter
	done bool
}

func (w *corruptWriter) Write(p []byte) (int, error) {
	if !w.done && len(p) > 5 {
		q := append([]byte(nil), p...)
		q[5] ^= 0x20
		w.done = true
		return w.ResponseWriter.Write(q)
	}
	return w.ResponseWriter.Write(p)
}
