package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"dpcache/internal/coherency"
	"dpcache/internal/fragstore"
)

// Span kinds: one per layer boundary the traced run decorates.
const (
	kHandler     uint8 = iota + 1 // dpc: Proxy.ServeHTTP
	kFetch                        // origin: Config.Transport round trip plus body reads
	kOrigin                       // origin: origin.Server handler
	kFragGet                      // fragstore: Config.Store Get
	kFragSet                      // fragstore: Config.Store Set
	kPageGet                      // pagecache: Config.PageCacheStore Get/GetKeep/GetStale
	kPagePut                      // pagecache: Put
	kPageScratch                  // pagecache: ReserveScratch (capture reservation)
	kCoherency                    // coherency: one Subscriber.Apply
	kRepo                         // repository: one control-endpoint write, incl. BEM + hub fan-out
)

// span is one timed call at a layer boundary. ID and Parent link the
// spans that can carry a request id (handler → fetch → origin handler);
// fragment-store and page-tier calls carry no context, so their spans
// have no parent. Start is nanoseconds since the recorder was enabled.
type span struct {
	Kind   uint8
	Hit    uint8
	_      [2]byte
	Bytes  uint32
	ID     uint64
	Parent uint64
	Start  int64
	Dur    int64
}

// recorder keeps spans in memory while enabled; they are written out when
// the traced window ends.
type recorder struct {
	on     atomic.Bool
	nextID atomic.Uint64

	mu    sync.Mutex
	base  time.Time
	spans []span
}

func (r *recorder) enable() {
	r.mu.Lock()
	r.base = time.Now()
	r.spans = make([]span, 0, 1<<18)
	r.mu.Unlock()
	r.on.Store(true)
}

// disable stops recording and returns what was recorded.
func (r *recorder) disable() []span {
	r.on.Store(false)
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.spans
	r.spans = nil
	return out
}

func (r *recorder) add(kind uint8, hit bool, id, parent uint64, t0 time.Time, d time.Duration, n int64) {
	s := span{Kind: kind, ID: id, Parent: parent, Dur: int64(d), Bytes: uint32(n)}
	if hit {
		s.Hit = 1
	}
	r.mu.Lock()
	s.Start = int64(t0.Sub(r.base))
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// timed records a parentless span that began at t0, if recording.
func (r *recorder) timed(kind uint8, hit bool, t0 time.Time, n int) {
	if r.on.Load() {
		r.add(kind, hit, 0, 0, t0, time.Since(t0), int64(n))
	}
}

func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := binary.Write(f, binary.LittleEndian, spans); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}

func readSpans(path string) ([]span, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	size := binary.Size(span{})
	if len(b)%size != 0 {
		return nil, fmt.Errorf("spans file %s: %d bytes is not a whole number of %d-byte spans", path, len(b), size)
	}
	out := make([]span, len(b)/size)
	if err := binary.Read(bytes.NewReader(b), binary.LittleEndian, out); err != nil {
		return nil, fmt.Errorf("read spans: %w", err)
	}
	return out, nil
}

// reqIDKey carries the handler span's id from the proxy handler to the
// origin transport.
type reqIDKey struct{}

// headerFetch carries the transport span's id to the origin handler.
const headerFetch = "X-Bench-Fetch"

// tracedHandler wraps Proxy.ServeHTTP.
type tracedHandler struct {
	h   http.Handler
	rec *recorder
}

func (t *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !t.rec.on.Load() {
		t.h.ServeHTTP(w, r)
		return
	}
	id := t.rec.nextID.Add(1)
	r = r.WithContext(context.WithValue(r.Context(), reqIDKey{}, id))
	t0 := time.Now()
	t.h.ServeHTTP(w, r)
	t.rec.add(kHandler, false, id, 0, t0, time.Since(t0), 0)
}

// tracedTransport wraps dpc.Config.Transport. A fetch's time is the
// round trip to response headers plus the time spent inside body reads,
// so it never overlaps the fragment-store calls the streaming assembler
// makes between reads.
type tracedTransport struct {
	base http.RoundTripper
	rec  *recorder
}

func (t *tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if !t.rec.on.Load() {
		return t.base.RoundTrip(req)
	}
	id := t.rec.nextID.Add(1)
	parent, _ := req.Context().Value(reqIDKey{}).(uint64)
	req = req.Clone(req.Context())
	req.Header.Set(headerFetch, strconv.FormatUint(id, 10))
	t0 := time.Now()
	resp, err := t.base.RoundTrip(req)
	d := time.Since(t0)
	if err != nil {
		t.rec.add(kFetch, false, id, parent, t0, d, 0)
		return nil, err
	}
	b := &timedBody{rc: resp.Body, rec: t.rec, id: id, parent: parent, start: t0}
	b.dur.Store(int64(d))
	resp.Body = b
	return resp, nil
}

type timedBody struct {
	rc         io.ReadCloser
	rec        *recorder
	id, parent uint64
	start      time.Time
	dur, n     atomic.Int64
	once       sync.Once
}

func (b *timedBody) Read(p []byte) (int, error) {
	t0 := time.Now()
	n, err := b.rc.Read(p)
	b.dur.Add(int64(time.Since(t0)))
	b.n.Add(int64(n))
	if err != nil {
		b.finish()
	}
	return n, err
}

func (b *timedBody) Close() error {
	err := b.rc.Close()
	b.finish()
	return err
}

func (b *timedBody) finish() {
	b.once.Do(func() {
		b.rec.add(kFetch, false, b.id, b.parent, b.start, time.Duration(b.dur.Load()), b.n.Load())
	})
}

// originMeter wraps the origin.Server handler. It always counts fetches
// (an end-to-end metric); while the recorder is on it also records a
// span linked to the transport span that caused it.
type originMeter struct {
	h       http.Handler
	rec     *recorder
	fetches atomic.Int64
}

func (m *originMeter) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	m.fetches.Add(1)
	if !m.rec.on.Load() {
		m.h.ServeHTTP(w, r)
		return
	}
	t0 := time.Now()
	m.h.ServeHTTP(w, r)
	parent, _ := strconv.ParseUint(r.Header.Get(headerFetch), 10, 64)
	m.rec.add(kOrigin, false, 0, parent, t0, time.Since(t0), 0)
}

// tracedStore wraps dpc.Config.Store on the request path: Get and Set.
type tracedStore struct {
	fragstore.FragmentStore
	rec *recorder
}

func (s *tracedStore) Get(key, gen uint32, strict bool) ([]byte, bool) {
	t0 := time.Now()
	b, ok := s.FragmentStore.Get(key, gen, strict)
	s.rec.timed(kFragGet, ok, t0, len(b))
	return b, ok
}

func (s *tracedStore) Set(key, gen uint32, content []byte) error {
	t0 := time.Now()
	err := s.FragmentStore.Set(key, gen, content)
	s.rec.timed(kFragSet, err == nil, t0, len(content))
	return err
}

// tracedKeyed wraps dpc.Config.PageCacheStore. Its invalidation-side
// calls (Delete, DeleteFunc, Flush), like the fragment store's Drop, run
// inside a coherency span and are left undecorated.
type tracedKeyed struct {
	fragstore.Keyed
	rec *recorder
}

func (k *tracedKeyed) Get(key string) (fragstore.KeyedEntry, bool) {
	t0 := time.Now()
	e, ok := k.Keyed.Get(key)
	k.rec.timed(kPageGet, ok, t0, len(e.Value))
	return e, ok
}

func (k *tracedKeyed) GetKeep(key string) (fragstore.KeyedEntry, bool) {
	t0 := time.Now()
	e, ok := k.Keyed.GetKeep(key)
	k.rec.timed(kPageGet, ok, t0, len(e.Value))
	return e, ok
}

func (k *tracedKeyed) GetStale(key string) (fragstore.KeyedEntry, time.Duration, bool) {
	t0 := time.Now()
	e, age, ok := k.Keyed.GetStale(key)
	k.rec.timed(kPageGet, ok, t0, len(e.Value))
	return e, age, ok
}

func (k *tracedKeyed) Put(key string, e fragstore.KeyedEntry, ttl time.Duration) {
	t0 := time.Now()
	k.Keyed.Put(key, e, ttl)
	k.rec.timed(kPagePut, true, t0, len(e.Value))
}

func (k *tracedKeyed) ReserveScratch(n int64) {
	t0 := time.Now()
	k.Keyed.ReserveScratch(n)
	k.rec.timed(kPageScratch, false, t0, 0)
}

// tracedSub wraps one coherency.Subscriber; its span id is the event's
// hub sequence number, so the spans of one event group together.
type tracedSub struct {
	coherency.Subscriber
	rec *recorder
}

func (s tracedSub) Apply(ev coherency.Event) uint64 {
	t0 := time.Now()
	seq := s.Subscriber.Apply(ev)
	if s.rec.on.Load() {
		s.rec.add(kCoherency, false, ev.Seq, 0, t0, time.Since(t0), 0)
	}
	return seq
}

// countingListener counts every byte read from and written to its
// connections: the origin↔proxy link.
type countingListener struct {
	net.Listener
	n *atomic.Int64
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, n: l.n}, nil
}

type countingConn struct {
	net.Conn
	n *atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.n.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.n.Add(int64(n))
	return n, err
}
