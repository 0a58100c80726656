// Package server is the long-lived query service in front of the metric
// indexes: it exposes an epoch.Live index over HTTP/JSON with endpoints
// for range search, kNN, batched workloads (routed through the
// internal/exec engine), inserts, deletes, statistics, and health — plus
// the two properties a production front needs that one-shot experiment
// binaries do not: admission control (bounded in-flight queries and a
// bounded wait queue, shedding load with 429 beyond both) and graceful
// index swap (POST /v1/swap rebuilds the structure in the background and
// cuts over atomically with zero dropped or wrong answers, courtesy of
// internal/epoch).
//
// Every answer the server returns is exactly the answer a direct call on
// the wrapped Index would return — the handlers add transport, accounting
// and synchronization, never approximation. Per-endpoint and per-client
// request statistics (count, errors, qps, p50/p95/p99 latency, compdists,
// page accesses) live in internal/obs handles: GET /metrics scrapes them
// and GET /v1/stats renders the same handles as JSON.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
	"runtime/debug"
	"time"

	"metricindex/internal/cache"
	"metricindex/internal/core"
	"metricindex/internal/epoch"
	"metricindex/internal/exec"
	"metricindex/internal/obs"
	"metricindex/internal/plan"
)

// Options configures a Server.
type Options struct {
	// MaxInFlight bounds the requests executing concurrently; <= 0 uses
	// 4 × GOMAXPROCS.
	MaxInFlight int
	// MaxQueue bounds the requests allowed to wait for an in-flight slot
	// before new arrivals are rejected with 429; <= 0 uses 4 × MaxInFlight.
	MaxQueue int
	// Workers sizes the batch engine pool behind /v1/batch; <= 0 uses
	// GOMAXPROCS.
	Workers int
	// Builder rebuilds the index for POST /v1/swap. nil disables the
	// endpoint (501).
	Builder epoch.Builder
	// ClientHeader names the header that identifies a client for
	// per-client stats; requests without it are keyed by remote host.
	// Default "X-Client".
	ClientHeader string
	// Cache, when non-nil, installs an epoch-keyed answer cache of the
	// given shape on the live index (a zero Options gets the cache
	// package defaults). Hot queries are then served memoized — zero
	// compdists, zero page accesses — across /v1/range, /v1/knn and
	// /v1/batch, with hit/miss/eviction counters in /v1/stats. Every
	// committed insert, delete or swap bumps the epoch the entries are
	// keyed by, so cached answers never outlive a write. nil leaves the
	// live index's caching as the caller configured it.
	Cache *cache.Options
	// AfterSwap, when non-nil, runs synchronously after each successful
	// /v1/swap cutover with the committed epoch — the durability hook:
	// mserve uses it to snapshot the fresh structure and truncate the
	// write-ahead log. An error is reported to the caller (the swap
	// itself stays committed).
	AfterSwap func(epoch uint64) error
	// PersistStats, when non-nil, supplies the persistence block of
	// /v1/stats. nil omits the block.
	PersistStats func() PersistenceStats
	// Obs is the metrics registry every layer registers into and
	// GET /metrics scrapes. nil creates a private registry (metrics are
	// still collected and served; the caller just holds no handle).
	// mserve passes its own so the persistence layer shares it.
	Obs *obs.Registry
	// DisableMetrics leaves GET /metrics unmounted. Instrumentation
	// still runs — the registry is also the admission controller's
	// state — only the scrape endpoint disappears.
	DisableMetrics bool
	// PProf mounts net/http/pprof under GET /debug/pprof/.
	PProf bool
	// SlowQueryThreshold, when positive, logs every admitted request
	// whose handler ran at least this long, with its endpoint, duration,
	// compdists, page accesses and client.
	SlowQueryThreshold time.Duration
	// SlowQueryLogf receives the slow-query lines; nil uses log.Printf.
	SlowQueryLogf func(format string, args ...any)
}

func (o Options) withDefaults() Options {
	if o.MaxInFlight <= 0 {
		o.MaxInFlight = 4 * runtime.GOMAXPROCS(0)
	}
	if o.MaxQueue <= 0 {
		o.MaxQueue = 4 * o.MaxInFlight
	}
	if o.ClientHeader == "" {
		o.ClientHeader = "X-Client"
	}
	if o.Obs == nil {
		o.Obs = obs.NewRegistry()
	}
	if o.SlowQueryLogf == nil {
		o.SlowQueryLogf = log.Printf
	}
	return o
}

// Server serves an epoch.Live index over HTTP. Create with New, mount
// via Handler, or run with ListenAndServe/Serve.
type Server struct {
	live      *epoch.Live
	space     *core.Space
	proto     core.Object // prototype object fixing the wire type
	eng       *exec.Engine
	adm       *admission
	builder   epoch.Builder
	afterSwap func(epoch uint64) error
	persStats func() PersistenceStats
	clientHdr string
	start     time.Time
	endpoints map[string]*line // filled by handle() in New, read-only after
	clients   clientLines
	mux       *http.ServeMux
	hsrv      *http.Server

	reg        *obs.Registry
	slowThresh time.Duration
	slowLogf   func(format string, args ...any)
}

// New builds a server over a live index. The dataset's Space and object
// type are captured at construction (both survive swaps).
func New(live *epoch.Live, opts Options) (*Server, error) {
	opts = opts.withDefaults()
	var space *core.Space
	var proto core.Object
	live.View(func(ds *core.Dataset, _ core.Index) {
		space = ds.Space()
		ids := ds.LiveIDs()
		if len(ids) > 0 {
			proto = ds.Object(ids[0])
		}
	})
	if proto == nil {
		return nil, fmt.Errorf("server: empty dataset, cannot infer the object type")
	}
	if opts.Cache != nil {
		live.SetCache(cache.New(*opts.Cache))
	}
	reg := opts.Obs
	s := &Server{
		live:  live,
		space: space,
		proto: proto,
		eng: exec.New(space, exec.Options{Workers: opts.Workers, Metrics: &exec.Metrics{
			Batches: reg.Counter("mx_exec_batches_total",
				"Batches dispatched through the exec engine."),
			BatchQueries: reg.Histogram("mx_exec_batch_queries",
				"Queries per dispatched batch.", obs.DefSizeBuckets),
			PredispatchHits: reg.Counter("mx_exec_predispatch_hits_total",
				"Batch queries answered from the answer cache before dispatch."),
			QueueWait: reg.Histogram("mx_exec_queue_wait_seconds",
				"Wait from batch arrival to worker pickup per dispatched query.",
				obs.DefLatencyBuckets),
		}}),
		adm:        newAdmission(opts.MaxInFlight, opts.MaxQueue, reg),
		builder:    opts.Builder,
		afterSwap:  opts.AfterSwap,
		persStats:  opts.PersistStats,
		clientHdr:  opts.ClientHeader,
		start:      time.Now(),
		endpoints:  make(map[string]*line),
		clients:    clientLines{reg: reg, m: make(map[string]*line)},
		reg:        reg,
		slowThresh: opts.SlowQueryThreshold,
		slowLogf:   opts.SlowQueryLogf,
	}
	if s.builder != nil {
		// Every index a swap builds gets instrumented before cutover, so
		// a rebuilt sharded front keeps observing its probe histograms.
		inner := s.builder
		s.builder = func(ds *core.Dataset) (core.Index, error) {
			idx, err := inner(ds)
			if err == nil {
				if ro, ok := idx.(obsRegistrar); ok {
					ro.RegisterObs(reg)
				}
			}
			return idx, err
		}
	}
	s.registerObs()
	s.mux = http.NewServeMux()
	s.hsrv = &http.Server{
		Handler:           s.mux,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		IdleTimeout:       idleTimeout,
	}
	s.mux.HandleFunc("POST /v1/range", s.handle("range", true, s.handleQuery(plan.KindRange)))
	s.mux.HandleFunc("POST /v1/knn", s.handle("knn", true, s.handleQuery(plan.KindKNN)))
	s.mux.HandleFunc("POST /v1/batch", s.handle("batch", true, s.handleBatch))
	s.mux.HandleFunc("POST /v1/insert", s.handle("insert", true, s.handleInsert))
	s.mux.HandleFunc("POST /v1/attrs", s.handle("attrs", true, s.handleAttrs))
	s.mux.HandleFunc("POST /v1/delete", s.handle("delete", true, s.handleDelete))
	s.mux.HandleFunc("POST /v1/swap", s.handle("swap", false, s.handleSwap))
	s.mux.HandleFunc("GET /v1/stats", s.handle("stats", false, s.handleStats))
	s.mux.HandleFunc("GET /healthz", s.handle("healthz", false, s.handleHealth))
	if !opts.DisableMetrics {
		// Mounted directly, not through handle(): the scrape is a
		// text-format read that must stay available under overload and
		// should not pollute the JSON endpoint stats.
		s.mux.Handle("GET /metrics", reg.Handler())
	}
	if opts.PProf {
		s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return s, nil
}

// Obs returns the server's metrics registry (for snapshotting by the
// bench harness and for the persistence layer to register into).
func (s *Server) Obs() *obs.Registry { return s.reg }

// Handler returns the HTTP handler tree (for mounting and tests).
func (s *Server) Handler() http.Handler { return s.mux }

// ListenAndServe binds addr and serves until Shutdown or failure.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Serve serves on an existing listener (callers pick the port, e.g.
// 127.0.0.1:0 in tests and smoke runs).
func (s *Server) Serve(ln net.Listener) error {
	err := s.hsrv.Serve(ln)
	if errors.Is(err, http.ErrServerClosed) {
		return nil
	}
	return err
}

// Shutdown drains in-flight requests and stops the listener.
func (s *Server) Shutdown(ctx context.Context) error {
	return s.hsrv.Shutdown(ctx)
}

// httpError carries a status code out of a handler.
type httpError struct {
	code int
	err  error
}

func (e *httpError) Error() string { return e.err.Error() }
func (e *httpError) Unwrap() error { return e.err }

func badRequest(format string, args ...any) error {
	return &httpError{code: http.StatusBadRequest, err: fmt.Errorf(format, args...)}
}

// reqInfo carries the per-request clock points handle captures for its
// handler: arrival (before admission) and admission (after the
// controller let the request through) — the span timeline of a traced
// query is anchored on them.
type reqInfo struct {
	arrived  time.Time
	admitted time.Time
}

// handle wraps an endpoint with admission control, cost accounting,
// metrics, the slow-query log, panic recovery, and error mapping. A
// handler that panics is answered 500 with the error JSON and counted as
// an endpoint error and in mx_server_panics_total (see call). admit=false exempts
// control-plane endpoints (stats/health, and swap — a swap runs for
// seconds and must not occupy a query slot; epoch.Live bounds it to one
// at a time itself).
//
// The endpoint's stats line is created once here at registration and
// captured by the closure, so the per-request cost is atomic increments
// plus one read-locked map lookup for the client's line — no exclusive
// lock, no per-line allocation.
func (s *Server) handle(name string, admit bool, fn func(r *http.Request, ri *reqInfo) (any, error)) http.HandlerFunc {
	ep := newLine(s.reg, "mx_server", obs.Label{Key: "endpoint", Value: name})
	s.endpoints[name] = ep
	panics := s.reg.Counter("mx_server_panics_total",
		"Handler panics recovered and answered 500 (each also counts as an endpoint error).",
		obs.Label{Key: "endpoint", Value: name})
	return func(w http.ResponseWriter, r *http.Request) {
		ri := reqInfo{arrived: time.Now()}
		r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
		client := s.clientKey(r)
		cl := s.clients.get(client)
		if admit {
			if err := s.adm.acquire(r.Context()); err != nil {
				// Shed requests never executed: count them without feeding
				// a zero-duration sample into the latency histogram, which
				// would zero the percentiles exactly when the operator is
				// diagnosing an overload.
				ep.sheds.Inc()
				cl.sheds.Inc()
				s.writeError(w, err)
				return
			}
			defer s.adm.release()
		}
		ri.admitted = time.Now()
		compBase := s.space.CompDists()
		paBase := s.live.PageAccesses()
		res, err := call(fn, r, &ri, panics)
		dur := time.Since(ri.admitted)
		comp := s.space.CompDists() - compBase
		pa := s.live.PageAccesses() - paBase
		if pa < 0 {
			pa = 0 // a swap replaced the index (and its counter) mid-request
		}
		ep.record(dur, comp, pa, err != nil)
		cl.record(dur, comp, pa, err != nil)
		if s.slowThresh > 0 && dur >= s.slowThresh {
			s.slowLogf("slow query: endpoint=%s dur=%s compdists=%d page_accesses=%d client=%s",
				name, dur, comp, pa, client)
		}
		if err != nil {
			s.writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, res)
	}
}

// call runs one endpoint handler and turns a panic into its error, so
// the request is answered and recorded like any failed one, the deferred
// admission release runs, and the connection survives. The panic is
// counted and logged with its stack. http.ErrAbortHandler, the
// deliberate abort of a response, is re-raised for net/http.
func call(fn func(r *http.Request, ri *reqInfo) (any, error), r *http.Request, ri *reqInfo, panics *obs.Counter) (res any, err error) {
	defer func() {
		if p := recover(); p != nil {
			if p == http.ErrAbortHandler {
				panic(p)
			}
			panics.Inc()
			log.Printf("server: panic serving %s: %v\n%s", r.URL.Path, p, debug.Stack())
			err = fmt.Errorf("server: internal error: %v", p)
		}
	}()
	return fn(r, ri)
}

// clientKey identifies the requester for per-client stats. The header
// is outside input and becomes a map key and a label value, so it is
// clamped to maxClientKey bytes.
func (s *Server) clientKey(r *http.Request) string {
	if c := r.Header.Get(s.clientHdr); c != "" {
		if len(c) > maxClientKey {
			c = c[:maxClientKey]
		}
		return c
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

func (s *Server) writeError(w http.ResponseWriter, err error) {
	code := http.StatusInternalServerError
	var he *httpError
	var tooBig *http.MaxBytesError
	switch {
	case errors.As(err, &tooBig):
		code = http.StatusRequestEntityTooLarge
	case errors.As(err, &he):
		code = he.code
	case errors.Is(err, ErrOverloaded):
		code = http.StatusTooManyRequests
	case errors.Is(err, epoch.ErrSwapInProgress):
		code = http.StatusConflict
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		code = http.StatusRequestTimeout
	}
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// Limits on outside input: handle caps every request body at
// maxBodyBytes and a larger one is refused with 413 (the largest
// /v1/batch the benchmark or the tests send is well under it); a
// connection that has not delivered its headers within readHeaderTimeout,
// or its whole request within readTimeout (a full-size body at about
// 5 Mbit/s), is closed, and so is a kept-alive connection idle for
// idleTimeout. There is no write timeout: a /v1/swap or a large batch
// legitimately runs long, and a handler's own deadline is what should
// bound it.
const (
	maxBodyBytes      = 32 << 20
	readHeaderTimeout = 10 * time.Second
	readTimeout       = 60 * time.Second
	idleTimeout       = 120 * time.Second
)

func decodeBody(r *http.Request, into any) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(into); err != nil {
		return badRequest("bad request body: %w", err)
	}
	return nil
}

// Neighbor is one kNN answer element on the wire.
type Neighbor struct {
	ID   int     `json:"id"`
	Dist float64 `json:"dist"`
}

func toWire(nns []core.Neighbor) []Neighbor {
	out := make([]Neighbor, len(nns))
	for i, nb := range nns {
		out[i] = Neighbor{ID: nb.ID, Dist: nb.Dist}
	}
	return out
}

// TraceResult is the span timeline of a trace-flagged query: total
// handler time plus one span per stage (admission_wait, decode,
// cache_probe, read_wait, read_section, probe_shard<N>, merge, encode),
// each with the compdists and page accesses attributable to it. The
// glossary is docs/OBSERVABILITY.md.
type TraceResult struct {
	TotalMicros int64      `json:"total_us"`
	Spans       []obs.Span `json:"spans"`
}

// newTrace starts the span timeline of one traced request, anchored at
// arrival, with the admission wait already recorded.
func newTrace(ri *reqInfo) *obs.Trace {
	tr := obs.NewTraceAt(ri.arrived)
	tr.Add("admission_wait", ri.arrived, ri.admitted.Sub(ri.arrived), 0, 0)
	return tr
}

// finishTrace records the encode span — measured by marshalling the
// trace-less response, which is the same work writeJSON is about to
// repeat — and closes the timeline. Only traced requests pay the double
// marshal.
func finishTrace(tr *obs.Trace, ri *reqInfo, res any) *TraceResult {
	encStart := time.Now()
	_, _ = json.Marshal(res)
	tr.Add("encode", encStart, time.Since(encStart), 0, 0)
	return &TraceResult{
		TotalMicros: time.Since(ri.arrived).Microseconds(),
		Spans:       tr.Spans(),
	}
}

// parseFilter compiles the optional filter clause of a query request.
// An empty clause means unfiltered (nil predicate); a malformed one is
// a client error. The predicate is compiled exactly once per request —
// evaluation against candidate attribute bags is allocation-free.
func parseFilter(src string) (*plan.Predicate, error) {
	if src == "" {
		return nil, nil
	}
	p, err := plan.Parse(src)
	if err != nil {
		return nil, badRequest("filter: %v", err)
	}
	return p, nil
}

// strategyString renders a plan strategy for the wire. Strategy zero is
// the cache convention: the answer was served memoized, no plan ran.
func strategyString(st plan.Strategy) string {
	if st == 0 {
		return "cached"
	}
	return st.String()
}

// checkParam rejects an out-of-domain radius or k — the one parameter
// check of /v1/range, /v1/knn and /v1/batch.
func checkParam(q plan.Query) error {
	if q.Kind == plan.KindRange && q.Radius < 0 {
		return badRequest("radius must be >= 0")
	}
	if q.Kind == plan.KindKNN && q.K <= 0 {
		return badRequest("k must be >= 1")
	}
	return nil
}

// RangeRequest is the body of POST /v1/range. Filter optionally
// restricts the answer to objects whose attribute bag satisfies the
// predicate (see docs/HYBRID.md for the clause language); Trace opts
// into the per-query span timeline on the response.
type RangeRequest struct {
	Query  json.RawMessage `json:"query"`
	Radius float64         `json:"radius"`
	Filter string          `json:"filter,omitempty"`
	Trace  bool            `json:"trace,omitempty"`
}

// RangeResponse answers POST /v1/range. IDs is ascending, exactly the
// direct RangeSearch answer; Epoch is the dataset version the search
// observed — answer and epoch come from one read section, so the pair is
// safe to cache. Strategy is present iff the request carried a filter:
// the execution shape the planner chose ("pre", "probe", "post"), or
// "cached" when the answer came from the answer cache without running a
// plan. Trace is present iff the request set trace.
type RangeResponse struct {
	IDs      []int        `json:"ids"`
	Epoch    uint64       `json:"epoch"`
	Strategy string       `json:"strategy,omitempty"`
	Trace    *TraceResult `json:"trace,omitempty"`
}

// KNNRequest is the body of POST /v1/knn. Filter optionally restricts
// the answer to objects whose attribute bag satisfies the predicate
// (see docs/HYBRID.md); Trace opts into the per-query span timeline on
// the response.
type KNNRequest struct {
	Query  json.RawMessage `json:"query"`
	K      int             `json:"k"`
	Filter string          `json:"filter,omitempty"`
	Trace  bool            `json:"trace,omitempty"`
}

// KNNResponse answers POST /v1/knn, sorted by ascending distance
// (ties by id) exactly as the direct KNNSearch call returns; Epoch is
// the dataset version the search observed (see RangeResponse). Strategy
// is present iff the request carried a filter (see RangeResponse).
// Trace is present iff the request set trace.
type KNNResponse struct {
	Neighbors []Neighbor   `json:"neighbors"`
	Epoch     uint64       `json:"epoch"`
	Strategy  string       `json:"strategy,omitempty"`
	Trace     *TraceResult `json:"trace,omitempty"`
}

// handleQuery is the one handler body behind POST /v1/range and POST
// /v1/knn: decode the kind's request struct into a plan.Query, run it
// through Live.Search, and encode the kind's response struct.
func (s *Server) handleQuery(kind plan.Kind) func(r *http.Request, ri *reqInfo) (any, error) {
	return func(r *http.Request, ri *reqInfo) (any, error) {
		decStart := time.Now()
		q := plan.Query{Kind: kind}
		var raw json.RawMessage
		var filter string
		var trace bool
		if kind == plan.KindRange {
			var req RangeRequest
			if err := decodeBody(r, &req); err != nil {
				return nil, err
			}
			raw, q.Radius, filter, trace = req.Query, req.Radius, req.Filter, req.Trace
		} else {
			var req KNNRequest
			if err := decodeBody(r, &req); err != nil {
				return nil, err
			}
			raw, q.K, filter, trace = req.Query, req.K, req.Filter, req.Trace
		}
		var err error
		if q.Object, err = decodeObject(raw, s.proto); err != nil {
			return nil, badRequest("query: %v", err)
		}
		if err := checkParam(q); err != nil {
			return nil, err
		}
		if q.Filter, err = parseFilter(filter); err != nil {
			return nil, err
		}
		if trace {
			q.Trace = newTrace(ri)
			q.Trace.Add("decode", decStart, time.Since(decStart), 0, 0)
		}
		ans, err := s.live.Search(q)
		if err != nil {
			return nil, err
		}
		strategy := ""
		if q.Filter != nil {
			strategy = strategyString(ans.Strategy)
		}
		var resp any
		var traceOut **TraceResult
		if kind == plan.KindRange {
			rr := &RangeResponse{IDs: ans.IDs, Epoch: ans.Epoch, Strategy: strategy}
			if rr.IDs == nil {
				rr.IDs = []int{}
			}
			resp, traceOut = rr, &rr.Trace
		} else {
			kr := &KNNResponse{Neighbors: toWire(ans.Neighbors), Epoch: ans.Epoch, Strategy: strategy}
			resp, traceOut = kr, &kr.Trace
		}
		if trace {
			*traceOut = finishTrace(q.Trace, ri, resp)
		}
		return resp, nil
	}
}

// BatchRequest is the body of POST /v1/batch: a whole workload answered
// through the concurrent batch engine in one round trip. Type is "range"
// (with Radius) or "knn" (with K). Filter optionally applies one
// attribute predicate to every query in the batch (compiled once).
type BatchRequest struct {
	Type    string            `json:"type"`
	Queries []json.RawMessage `json:"queries"`
	Radius  float64           `json:"radius,omitempty"`
	K       int               `json:"k,omitempty"`
	Filter  string            `json:"filter,omitempty"`
}

// BatchStats reports the engine's per-batch cost on the wire.
// CacheHits is the number of queries the answer cache served before the
// batch ever reached a worker (0 without a cache). The p50/p95/p99
// percentiles cover only the queries that actually computed — cache
// hits return in single-digit microseconds and would otherwise drag the
// percentiles toward zero exactly when the operator is reading them —
// and the hit percentiles report the memoized path separately (zero
// when every query missed).
type BatchStats struct {
	Queries      int     `json:"queries"`
	WallMicros   int64   `json:"wall_us"`
	QPS          float64 `json:"qps"`
	CompDists    int64   `json:"compdists"`
	PageAccesses int64   `json:"page_accesses"`
	P50Micros    int64   `json:"p50_us"`
	P95Micros    int64   `json:"p95_us"`
	P99Micros    int64   `json:"p99_us"`
	HitP50Micros int64   `json:"hit_p50_us"`
	HitP95Micros int64   `json:"hit_p95_us"`
	HitP99Micros int64   `json:"hit_p99_us"`
	CacheHits    int     `json:"cache_hits"`
}

func toWireStats(st exec.BatchStats) BatchStats {
	return BatchStats{
		Queries:      st.Queries,
		WallMicros:   st.Wall.Microseconds(),
		QPS:          st.Throughput(),
		CompDists:    st.CompDists,
		PageAccesses: st.PageAccesses,
		P50Micros:    st.P50.Microseconds(),
		P95Micros:    st.P95.Microseconds(),
		P99Micros:    st.P99.Microseconds(),
		HitP50Micros: st.HitP50.Microseconds(),
		HitP95Micros: st.HitP95.Microseconds(),
		HitP99Micros: st.HitP99.Microseconds(),
		CacheHits:    st.CacheHits,
	}
}

// wirePlans renders the per-query strategies of a filtered batch
// (nil for unfiltered batches, so the field is omitted).
func wirePlans(plans []plan.Strategy) []string {
	if plans == nil {
		return nil
	}
	out := make([]string, len(plans))
	for i, st := range plans {
		out[i] = strategyString(st)
	}
	return out
}

// BatchResponse answers POST /v1/batch; IDs (range) or Neighbors (knn)
// is positionally aligned with the request's queries. Updates may commit
// while a batch runs, so each per-query answer observed some epoch in
// [EpochLow, EpochHigh]; only when the two are equal is the whole batch
// one consistent dataset version (and safe to cache as such).
type BatchResponse struct {
	IDs       [][]int      `json:"ids,omitempty"`
	Neighbors [][]Neighbor `json:"neighbors,omitempty"`
	Plans     []string     `json:"plans,omitempty"`
	Stats     BatchStats   `json:"stats"`
	EpochLow  uint64       `json:"epoch_low"`
	EpochHigh uint64       `json:"epoch_high"`
}

func (s *Server) handleBatch(r *http.Request, _ *reqInfo) (any, error) {
	var req BatchRequest
	if err := decodeBody(r, &req); err != nil {
		return nil, err
	}
	if len(req.Queries) == 0 {
		return nil, badRequest("empty queries")
	}
	qs := make([]core.Object, len(req.Queries))
	for i, raw := range req.Queries {
		q, err := decodeObject(raw, s.proto)
		if err != nil {
			return nil, badRequest("query %d: %v", i, err)
		}
		qs[i] = q
	}
	pred, err := parseFilter(req.Filter)
	if err != nil {
		return nil, err
	}
	q := plan.Query{Radius: req.Radius, K: req.K, Filter: pred}
	switch req.Type {
	case "range":
		q.Kind = plan.KindRange
	case "knn":
		q.Kind = plan.KindKNN
	default:
		return nil, badRequest("type must be \"range\" or \"knn\", got %q", req.Type)
	}
	if err := checkParam(q); err != nil {
		return nil, err
	}
	epochLow := s.live.Epoch()
	res, err := s.eng.Batch(r.Context(), s.live, qs, q)
	if err != nil {
		return nil, err
	}
	resp := BatchResponse{IDs: res.IDs, Plans: wirePlans(res.Plans), Stats: toWireStats(res.Stats),
		EpochLow: epochLow, EpochHigh: s.live.Epoch()}
	for i, ids := range resp.IDs {
		if ids == nil {
			resp.IDs[i] = []int{}
		}
	}
	if res.Neighbors != nil {
		resp.Neighbors = make([][]Neighbor, len(res.Neighbors))
		for i, part := range res.Neighbors {
			resp.Neighbors[i] = toWire(part)
		}
	}
	return resp, nil
}

// InsertRequest is the body of POST /v1/insert. Attrs optionally
// attaches an attribute bag to the object for filtered search: a JSON
// object mapping field names to strings, numbers, or string arrays
// (tag sets) — see decodeAttrs for the exact kind mapping.
type InsertRequest struct {
	Object json.RawMessage `json:"object"`
	Attrs  json.RawMessage `json:"attrs,omitempty"`
}

// InsertResponse reports the identifier the object now answers under
// and the epoch the write committed at.
type InsertResponse struct {
	ID    int    `json:"id"`
	Epoch uint64 `json:"epoch"`
}

func (s *Server) handleInsert(r *http.Request, _ *reqInfo) (any, error) {
	var req InsertRequest
	if err := decodeBody(r, &req); err != nil {
		return nil, err
	}
	o, err := decodeObject(req.Object, s.proto)
	if err != nil {
		return nil, badRequest("object: %v", err)
	}
	attrs, err := decodeAttrs(req.Attrs)
	if err != nil {
		return nil, badRequest("%v", err)
	}
	id, ep, err := s.live.AddAttrsAt(o, attrs)
	if err != nil {
		return nil, err
	}
	return InsertResponse{ID: id, Epoch: ep}, nil
}

// AttrsRequest is the body of POST /v1/attrs: replace the attribute bag
// of a live object (an absent or empty bag clears it).
type AttrsRequest struct {
	ID    int             `json:"id"`
	Attrs json.RawMessage `json:"attrs,omitempty"`
}

// AttrsResponse confirms the attribute write with its commit epoch.
type AttrsResponse struct {
	Epoch uint64 `json:"epoch"`
}

func (s *Server) handleAttrs(r *http.Request, _ *reqInfo) (any, error) {
	var req AttrsRequest
	if err := decodeBody(r, &req); err != nil {
		return nil, err
	}
	attrs, err := decodeAttrs(req.Attrs)
	if err != nil {
		return nil, badRequest("%v", err)
	}
	ep, err := s.live.SetAttrsAt(req.ID, attrs)
	if err != nil {
		return nil, badRequest("attrs %d: %v", req.ID, err)
	}
	return AttrsResponse{Epoch: ep}, nil
}

// DeleteRequest is the body of POST /v1/delete.
type DeleteRequest struct {
	ID int `json:"id"`
}

// DeleteResponse confirms the delete with its commit epoch.
type DeleteResponse struct {
	Epoch uint64 `json:"epoch"`
}

func (s *Server) handleDelete(r *http.Request, _ *reqInfo) (any, error) {
	var req DeleteRequest
	if err := decodeBody(r, &req); err != nil {
		return nil, err
	}
	ep, err := s.live.RemoveAt(req.ID)
	if err != nil {
		return nil, badRequest("delete %d: %v", req.ID, err)
	}
	return DeleteResponse{Epoch: ep}, nil
}

// SwapResponse reports a completed graceful swap.
type SwapResponse struct {
	Epoch       uint64 `json:"epoch"`
	BuildMillis int64  `json:"build_ms"`
}

func (s *Server) handleSwap(r *http.Request, _ *reqInfo) (any, error) {
	if s.builder == nil {
		return nil, &httpError{code: http.StatusNotImplemented,
			err: errors.New("swap: no builder configured")}
	}
	start := time.Now()
	if err := s.live.Swap(s.builder); err != nil {
		return nil, err
	}
	ep := s.live.Epoch()
	if s.afterSwap != nil {
		if err := s.afterSwap(ep); err != nil {
			// The cutover is committed; only the durability hook failed.
			return nil, fmt.Errorf("swap committed at epoch %d, but persistence failed: %w", ep, err)
		}
	}
	return SwapResponse{Epoch: ep, BuildMillis: time.Since(start).Milliseconds()}, nil
}

// IndexStats describes the live index in /v1/stats.
type IndexStats struct {
	Name         string `json:"name"`
	Count        int    `json:"count"`
	Epoch        uint64 `json:"epoch"`
	MemBytes     int64  `json:"mem_bytes"`
	DiskBytes    int64  `json:"disk_bytes"`
	PageAccesses int64  `json:"page_accesses"`
}

// CacheStats describes the answer cache in /v1/stats. All counters are
// zero (and Enabled false) when no cache is attached to the live index.
type CacheStats struct {
	Enabled   bool    `json:"enabled"`
	Hits      int64   `json:"hits"`
	Misses    int64   `json:"misses"`
	Collapsed int64   `json:"collapsed"`
	Evictions int64   `json:"evictions"`
	Entries   int64   `json:"entries"`
	Bytes     int64   `json:"bytes"`
	MaxBytes  int64   `json:"max_bytes"`
	HitRate   float64 `json:"hit_rate"`
}

// PersistenceStats describes the durability state in /v1/stats: where the
// snapshot and write-ahead log live, the epoch the last snapshot captured,
// and the log's growth since. All fields are zero (Enabled false) when the
// server runs without a data directory.
type PersistenceStats struct {
	Enabled       bool   `json:"enabled"`
	Dir           string `json:"dir,omitempty"`
	Restored      bool   `json:"restored"`
	SnapshotEpoch uint64 `json:"snapshot_epoch"`
	SnapshotBytes int64  `json:"snapshot_bytes"`
	WALRecords    int64  `json:"wal_records"`
	WALBytes      int64  `json:"wal_bytes"`
	Fsync         string `json:"fsync,omitempty"`
}

// StatsResponse answers GET /v1/stats.
type StatsResponse struct {
	UptimeSeconds float64                 `json:"uptime_seconds"`
	Index         IndexStats              `json:"index"`
	Cache         CacheStats              `json:"cache"`
	Persistence   PersistenceStats        `json:"persistence"`
	Admission     AdmissionStats          `json:"admission"`
	Endpoints     map[string]TrackerStats `json:"endpoints"`
	Clients       map[string]TrackerStats `json:"clients"`
}

func (s *Server) cacheStats() CacheStats {
	st, ok := s.live.CacheStats()
	if !ok {
		return CacheStats{}
	}
	return CacheStats{
		Enabled:   true,
		Hits:      st.Hits,
		Misses:    st.Misses,
		Collapsed: st.Collapsed,
		Evictions: st.Evictions,
		Entries:   st.Entries,
		Bytes:     st.Bytes,
		MaxBytes:  st.MaxBytes,
		HitRate:   st.HitRate(),
	}
}

func (s *Server) handleStats(*http.Request, *reqInfo) (any, error) {
	var info IndexStats
	s.live.View(func(ds *core.Dataset, idx core.Index) {
		info = IndexStats{
			Name:         idx.Name(),
			Count:        ds.Count(),
			MemBytes:     idx.MemBytes(),
			DiskBytes:    idx.DiskBytes(),
			PageAccesses: idx.PageAccesses(),
		}
	})
	info.Epoch = s.live.Epoch()
	var pers PersistenceStats
	if s.persStats != nil {
		pers = s.persStats()
	}
	uptime := time.Since(s.start)
	return StatsResponse{
		UptimeSeconds: uptime.Seconds(),
		Index:         info,
		Cache:         s.cacheStats(),
		Persistence:   pers,
		Admission:     s.adm.stats(),
		Endpoints:     lineStats(s.endpoints, uptime),
		Clients:       s.clients.stats(uptime),
	}, nil
}

// HealthResponse answers GET /healthz.
type HealthResponse struct {
	Status string `json:"status"`
	Index  string `json:"index"`
	Epoch  uint64 `json:"epoch"`
}

func (s *Server) handleHealth(*http.Request, *reqInfo) (any, error) {
	return HealthResponse{Status: "ok", Index: s.live.Name(), Epoch: s.live.Epoch()}, nil
}
