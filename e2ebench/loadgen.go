package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"dpcache/internal/analytical"
	wl "dpcache/internal/workload"
)

// reqTimeout bounds every request; a request that exceeds it fails.
const reqTimeout = 5 * time.Second

// window is what one measured stretch of traffic produced.
type window struct {
	Elapsed   time.Duration
	Reads     int     // read requests attempted
	OK        int     // verified 200 responses
	Failed    int     // reads that failed for any reason
	Writes    int     // control-endpoint writes attempted
	WriteFail int     // writes that were not acknowledged
	Latency   []int64 // ns per read; a failed read counts as reqTimeout
	Lateness  []int64 // paced and open loops: ns each read was sent after it was due
	XCache    map[string]int
	Errors    []string // the first few failure messages, as found
}

func (w *window) merge(o *window) {
	w.Reads += o.Reads
	w.OK += o.OK
	w.Failed += o.Failed
	w.Writes += o.Writes
	w.WriteFail += o.WriteFail
	w.Latency = append(w.Latency, o.Latency...)
	w.Lateness = append(w.Lateness, o.Lateness...)
	if w.XCache == nil {
		w.XCache = map[string]int{}
	}
	for k, v := range o.XCache {
		w.XCache[k] += v
	}
	for _, e := range o.Errors {
		w.noteError(e)
	}
}

const maxErrors = 8

func (w *window) noteError(msg string) {
	if len(w.Errors) < maxErrors {
		w.Errors = append(w.Errors, msg)
	}
}

// record files one read's outcome and its latency: from its send in a
// closed loop, from its due instant in the open loop.
func (w *window) record(lat time.Duration, xcache string, err error) {
	w.Reads++
	if err != nil {
		w.Failed++
		w.Latency = append(w.Latency, int64(reqTimeout))
		w.noteError(err.Error())
		return
	}
	w.OK++
	w.Latency = append(w.Latency, int64(lat))
	if w.XCache == nil {
		w.XCache = map[string]int{}
	}
	w.XCache[xcache]++
}

// loadgen drives one workload against a running SUT.
type loadgen struct {
	w       workload
	proxy   string // http://host:port
	control string
	zipf    *wl.Zipf
	// acked[j] is fragment j's highest acknowledged source-row version;
	// next[j] is the writer's last issued one.
	acked []atomic.Uint64
	next  []uint64
	ctrl  *http.Client
}

func newLoadgen(w workload, proxyAddr, ctrlAddr string) (*loadgen, error) {
	z, err := wl.NewZipf(w.Pages, w.Alpha)
	if err != nil {
		return nil, err
	}
	n := sitePages * siteFragsPerPage
	lg := &loadgen{
		w:       w,
		proxy:   "http://" + proxyAddr,
		control: "http://" + ctrlAddr,
		zipf:    z,
		acked:   make([]atomic.Uint64, n),
		next:    make([]uint64, n),
		ctrl:    newClient(),
	}
	for j := range lg.acked {
		lg.acked[j].Store(1) // BuildSynthetic seeds every row at version 1
		lg.next[j] = 1
	}
	return lg, nil
}

// newClient returns a client holding at most one connection.
func newClient() *http.Client {
	return &http.Client{
		Timeout: reqTimeout,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}
}

// worker is one load-generating connection.
type worker struct {
	lg     *loadgen
	client *http.Client
	buf    bytes.Buffer
	floor  [siteFragsPerPage]uint64
}

func (lg *loadgen) newWorker() *worker { return &worker{lg: lg, client: newClient()} }

// get fetches one page and checks the body. Versions are checked against
// the acknowledged writes only on workloads that write.
func (wk *worker) get(page int, user string) (string, error) {
	lg := wk.lg
	var floor []uint64
	if lg.w.WriteRate > 0 {
		for k := range wk.floor {
			wk.floor[k] = lg.acked[page*siteFragsPerPage+k].Load()
		}
		floor = wk.floor[:]
	}
	req, err := http.NewRequest(http.MethodGet, lg.proxy+"/page/synth?page="+strconv.Itoa(page), nil)
	if err != nil {
		return "", err
	}
	if user != "" {
		req.Header.Set("X-User", user)
	}
	resp, err := wk.client.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	wk.buf.Reset()
	if _, err := wk.buf.ReadFrom(resp.Body); err != nil {
		return "", fmt.Errorf("page %d: read body: %w", page, err)
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("page %d: status %d", page, resp.StatusCode)
	}
	return resp.Header.Get("X-Cache"), checkPage(wk.buf.Bytes(), page, floor)
}

// checkPage verifies a synthetic page: its exact length, and at each
// fragment's offset the marker "<!--frag J vN-->" for the page's J-th
// fragment in order. With floor set, fragment k's version N must be at
// least floor[k], the version acknowledged before the request was sent.
func checkPage(body []byte, page int, floor []uint64) error {
	if len(body) != pageBytes {
		return fmt.Errorf("page %d: body is %d bytes, want %d", page, len(body), pageBytes)
	}
	var want [32]byte
	for k := 0; k < siteFragsPerPage; k++ {
		j := page*siteFragsPerPage + k
		prefix := strconv.AppendInt(append(want[:0], "<!--frag "...), int64(j), 10)
		prefix = append(prefix, " v"...)
		seg := body[k*siteFragBytes : (k+1)*siteFragBytes]
		if !bytes.HasPrefix(seg, prefix) {
			return fmt.Errorf("page %d: fragment %d: marker %q does not start %q", page, k, clip(seg, 24), prefix)
		}
		rest := seg[len(prefix):]
		end := bytes.Index(clip(rest, 24), []byte("-->"))
		if end <= 0 {
			return fmt.Errorf("page %d: fragment %d: unterminated marker %q", page, k, clip(seg, 24))
		}
		v, err := strconv.ParseUint(string(rest[:end]), 10, 64)
		if err != nil {
			return fmt.Errorf("page %d: fragment %d: bad version in %q", page, k, clip(seg, 24))
		}
		if floor != nil && v < floor[k] {
			return fmt.Errorf("page %d: fragment %d: version %d is older than acknowledged version %d", page, k, v, floor[k])
		}
	}
	return nil
}

func clip(b []byte, n int) []byte {
	if len(b) > n {
		return b[:n]
	}
	return b
}

func (lg *loadgen) user(rng *rand.Rand) string {
	if !lg.w.Registered {
		return ""
	}
	return "u" + strconv.Itoa(rng.Intn(64))
}

// sweep requests every page of the workload's ranking once, in order,
// over one connection: the warm-up fill.
func (lg *loadgen) sweep(ctx context.Context, seed int64) *window {
	wk := lg.newWorker()
	defer wk.client.CloseIdleConnections()
	rng := rand.New(rand.NewSource(seed))
	out := &window{}
	for p := 0; p < lg.w.Pages && ctx.Err() == nil; p++ {
		t0 := time.Now()
		xc, err := wk.get(p, lg.user(rng))
		out.record(time.Since(t0), xc, err)
	}
	return out
}

// run drives the workload for d: a closed loop over clientConns()
// connections or an open loop at the workload's rate, plus its write
// stream.
func (lg *loadgen) run(ctx context.Context, seed int64, d time.Duration) *window {
	var (
		wg     sync.WaitGroup
		writes *window
	)
	if lg.w.WriteRate > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			writes = lg.writeStream(ctx, seed, d)
		}()
	}
	var reads *window
	if lg.w.OpenRate > 0 {
		reads = lg.openLoop(ctx, seed, d)
	} else {
		reads = lg.closedLoop(ctx, seed, d)
	}
	wg.Wait()
	if writes != nil {
		reads.merge(writes)
	}
	return reads
}

// closedLoop sends the next read on each connection once the previous
// one is answered. Paced, a connection's next read is due one period
// after its previous send, and the lateness of each send past that
// instant is recorded: it grows when responses outlast the period.
func (lg *loadgen) closedLoop(ctx context.Context, seed int64, d time.Duration) *window {
	parts := make([]*window, clientConns())
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for i := range parts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			wk := lg.newWorker()
			defer wk.client.CloseIdleConnections()
			rng := rand.New(rand.NewSource(seed*7919 + int64(i)))
			out := &window{}
			var pace *pacer
			var period time.Duration
			if lg.w.PacedRate > 0 {
				var err error
				if pace, err = newPacer(); err != nil {
					out.record(0, "", err)
					parts[i] = out
					return
				}
				defer pace.close()
				period = time.Duration(float64(len(parts)) / lg.w.PacedRate * float64(time.Second))
			}
			var due time.Time // paced: when this send was due
			for ctx.Err() == nil && time.Now().Before(deadline) {
				page := lg.zipf.Sample(rng)
				user := lg.user(rng)
				t0 := time.Now()
				if !due.IsZero() {
					out.Lateness = append(out.Lateness, int64(t0.Sub(due)))
				}
				xc, err := wk.get(page, user)
				out.record(time.Since(t0), xc, err)
				if pace != nil {
					due = t0.Add(period)
					pace.sleepUntil(ctx, due)
				}
			}
			parts[i] = out
		}()
	}
	wg.Wait()
	total := &window{Elapsed: time.Since(start)}
	for _, p := range parts {
		total.merge(p)
	}
	return total
}

// openLoop sends reads on a seeded Poisson schedule. Due arrivals queue
// client-side behind the clientConns() connections; each read is timed
// from the instant it was due, and the lateness of its send is recorded.
func (lg *loadgen) openLoop(ctx context.Context, seed int64, d time.Duration) *window {
	rng := rand.New(rand.NewSource(seed*7919 + 101))
	type arrival struct {
		due  time.Duration
		page int
		user string
	}
	var sched []arrival
	for t := 0.0; ; {
		t += rng.ExpFloat64() / lg.w.OpenRate
		due := time.Duration(t * float64(time.Second))
		if due >= d {
			break
		}
		sched = append(sched, arrival{due: due, page: lg.zipf.Sample(rng), user: lg.user(rng)})
	}
	pace, err := newPacer()
	if err != nil {
		return &window{Elapsed: d, Errors: []string{err.Error()}, Failed: len(sched), Reads: len(sched)}
	}
	defer pace.close()
	queue := make(chan int, len(sched)) // sized to every send: the dispatcher never blocks
	parts := make([]*window, clientConns())
	start := time.Now()
	var wg sync.WaitGroup
	for i := range parts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			wk := lg.newWorker()
			defer wk.client.CloseIdleConnections()
			out := &window{}
			for k := range queue {
				a := sched[k]
				due := start.Add(a.due)
				out.Lateness = append(out.Lateness, int64(time.Since(due)))
				xc, err := wk.get(a.page, a.user)
				out.record(time.Since(due), xc, err)
			}
			parts[i] = out
		}()
	}
	for k := range sched {
		if !pace.sleepUntil(ctx, start.Add(sched[k].due)) {
			break
		}
		queue <- k
	}
	close(queue)
	wg.Wait()
	total := &window{Elapsed: d}
	for _, p := range parts {
		total.merge(p)
	}
	return total
}

// writeStream bumps fragment source rows at the workload's fixed write
// rate through the SUT's control endpoint. Targets are seeded: a page by
// the read popularity, then one of its cacheable fragments. A write's
// version becomes the floor for reads sent after its acknowledgement.
func (lg *loadgen) writeStream(ctx context.Context, seed int64, d time.Duration) *window {
	rng := rand.New(rand.NewSource(seed*7919 + 202))
	out := &window{}
	pace, err := newPacer()
	if err != nil {
		out.noteError(err.Error())
		out.WriteFail++
		return out
	}
	defer pace.close()
	gap := time.Duration(float64(time.Second) / lg.w.WriteRate)
	start := time.Now()
	for k := 0; ; k++ {
		due := time.Duration(k) * gap
		if due >= d {
			break
		}
		if !pace.sleepUntil(ctx, start.Add(due)) {
			break
		}
		j := cacheableFragment(lg.zipf.Sample(rng), rng)
		lg.next[j]++
		v := lg.next[j]
		out.Writes++
		if err := lg.touch(j, v); err != nil {
			out.WriteFail++
			out.noteError(err.Error())
			continue
		}
		lg.acked[j].Store(v)
	}
	return out
}

func (lg *loadgen) touch(j int, v uint64) error {
	resp, err := lg.ctrl.Post(fmt.Sprintf("%s/touch?frag=%d&v=%d", lg.control, j, v), "", nil)
	if err != nil {
		return fmt.Errorf("write fragment %d v%d: %w", j, v, err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		return fmt.Errorf("write fragment %d v%d: status %d", j, v, resp.StatusCode)
	}
	return nil
}

// cacheableFragment picks one of page's cacheable (BEM-tagged) fragments.
// Only those are written: the BEM tracks the source rows of tagged
// fragments and invalidates every tier on a write, whereas untagged
// fragments cached inside a whole page are refreshed only by the page
// tier's TTL, so an acknowledged write to one promises nothing.
func cacheableFragment(page int, rng *rand.Rand) int {
	var ids [siteFragsPerPage]int
	n := 0
	for k := 0; k < siteFragsPerPage; k++ {
		if j := page*siteFragsPerPage + k; analytical.CacheableStripe(j, siteCacheability) {
			ids[n] = j
			n++
		}
	}
	return ids[rng.Intn(n)]
}
