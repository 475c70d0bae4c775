package main

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"spanners/internal/obs"
)

// Tracing lives entirely in the benchmark: spans are recorded around
// the calls into each layer, never inside the program. One recorder
// serves every tier, because gate and shards run in this process and
// share its clock.
//
//	op      generator op (client package call), from send to answer
//	gate    the Gate handler
//	attempt one gate→shard call, RoundTrip to response-body end
//	shard   one shard's httpapi handler
//	stage:* the shard's own stage spans for that request, read from its
//	        trace ring (obs.Tracer) after the handler returns
//
// The hop header carries "op.parent" from the caller's span to the
// callee, so each span names its parent and the op it belongs to.

const hopHeader = "X-Perfbench-Span"

type spanRec struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Bytes  int64  `json:"bytes,omitempty"`
}

type recorder struct {
	epoch time.Time
	on    atomic.Bool
	next  atomic.Int64

	mu    sync.Mutex
	spans []spanRec
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

func (r *recorder) at(t time.Time) int64 { return int64(t.Sub(r.epoch)) }

func (r *recorder) newID() int64 { return r.next.Add(1) }

func (r *recorder) add(s spanRec) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

func (r *recorder) snapshot() []spanRec {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]spanRec(nil), r.spans...)
}

// writeFile writes every span as one JSON line.
func (r *recorder) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

type spanKey struct{}

type spanCtx struct{ op, id int64 }

func withSpan(ctx context.Context, s spanCtx) context.Context {
	return context.WithValue(ctx, spanKey{}, s)
}

func spanFrom(ctx context.Context) (spanCtx, bool) {
	s, ok := ctx.Value(spanKey{}).(spanCtx)
	return s, ok
}

func (s spanCtx) header() string {
	return strconv.FormatInt(s.op, 10) + "." + strconv.FormatInt(s.id, 10)
}

func parseHop(h string) (spanCtx, bool) {
	a, b, ok := strings.Cut(h, ".")
	if !ok {
		return spanCtx{}, false
	}
	op, err1 := strconv.ParseInt(a, 10, 64)
	id, err2 := strconv.ParseInt(b, 10, 64)
	return spanCtx{op: op, id: id}, err1 == nil && err2 == nil
}

// hopTransport tags outgoing requests with the caller's span and, when
// name is set, records the whole exchange (headers out to body end) as
// a span of its own: the gate→shard attempt. Requests without a span
// in their context (health probes) pass through untouched.
type hopTransport struct {
	rec  *recorder
	name string
	base http.RoundTripper
}

func (t *hopTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	parent, ok := spanFrom(req.Context())
	if !ok || !t.rec.on.Load() {
		return t.base.RoundTrip(req)
	}
	cur := parent
	var start int64
	if t.name != "" {
		cur = spanCtx{op: parent.op, id: t.rec.newID()}
		start = t.rec.now()
	}
	req = req.Clone(req.Context())
	req.Header.Set(hopHeader, cur.header())
	resp, err := t.base.RoundTrip(req)
	if t.name == "" {
		return resp, err
	}
	rec := spanRec{ID: cur.id, Parent: parent.id, Op: parent.op, Name: t.name, Start: start}
	if err != nil {
		rec.End = t.rec.now()
		t.rec.add(rec)
		return resp, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, done: func() {
		rec.End = t.rec.now()
		t.rec.add(rec)
	}}
	return resp, nil
}

// spanBody ends its span at the first EOF or Close, whichever comes
// first.
type spanBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *spanBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if err == io.EOF {
		b.once.Do(b.done)
	}
	return n, err
}

func (b *spanBody) Close() error {
	b.once.Do(b.done)
	return b.ReadCloser.Close()
}

// tracedHandler records a span around h for requests that carry a hop
// header, and hands h a context naming that span, from which the gate
// derives its upstream attempt contexts. For a shard (tracer non-nil)
// the span also carries the response size, and the shard's own stage
// spans for the request are copied in as children.
type tracedHandler struct {
	rec    *recorder
	name   string
	h      http.Handler
	tracer *obs.Tracer
}

func (t *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	parent, ok := parseHop(r.Header.Get(hopHeader))
	if !ok || !t.rec.on.Load() {
		t.h.ServeHTTP(w, r)
		return
	}
	cur := spanCtx{op: parent.op, id: t.rec.newID()}
	start := t.rec.now()
	cw := &countingWriter{ResponseWriter: w}
	defer func() {
		// Runs even when the handler aborts the connection.
		rec := spanRec{ID: cur.id, Parent: parent.id, Op: parent.op, Name: t.name + ":" + r.Method,
			Start: start, End: t.rec.now(), Bytes: cw.n}
		t.rec.add(rec)
		if t.tracer != nil {
			t.copyStages(cur, w.Header().Get("X-Request-ID"))
		}
	}()
	t.h.ServeHTTP(cw, r.WithContext(withSpan(r.Context(), cur)))
}

// copyStages adds the shard's recorded stage spans for request id as
// children of the shard span.
func (t *tracedHandler) copyStages(parent spanCtx, id string) {
	snap, ok := t.tracer.Get(id)
	if !ok {
		return
	}
	base := t.rec.at(snap.Begin)
	for _, s := range snap.Spans {
		t.rec.add(spanRec{ID: t.rec.newID(), Parent: parent.id, Op: parent.op,
			Name: "stage:" + s.Name, Start: base + s.Start, End: base + s.Start + s.DurNs})
	}
}

// countingWriter counts response bytes and keeps streaming working.
type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (w *countingWriter) Write(b []byte) (int, error) {
	n, err := w.ResponseWriter.Write(b)
	w.n += int64(n)
	return n, err
}

func (w *countingWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// interval is a closed-open time range in recorder nanoseconds.
type interval struct{ start, end int64 }

// unionWithin returns how much of [lo, hi) the intervals cover, each
// interval clipped to it and overlaps counted once.
func unionWithin(lo, hi int64, ivs []interval) int64 {
	clipped := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		s, e := max(iv.start, lo), min(iv.end, hi)
		if s < e {
			clipped = append(clipped, interval{s, e})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	var total, curS, curE int64
	for i, iv := range clipped {
		switch {
		case i == 0:
			curS, curE = iv.start, iv.end
		case iv.start <= curE:
			curE = max(curE, iv.end)
		default:
			total += curE - curS
			curS, curE = iv.start, iv.end
		}
	}
	if len(clipped) > 0 {
		total += curE - curS
	}
	return total
}

// selfTime is a span's duration minus the union of its children.
func selfTime(s spanRec, children []spanRec) int64 {
	ivs := make([]interval, len(children))
	for i, c := range children {
		ivs[i] = interval{c.Start, c.End}
	}
	return (s.End - s.Start) - unionWithin(s.Start, s.End, ivs)
}

// layerTimes is the per-layer breakdown of one traced window. The
// slices hold µs, one entry per span of that layer; the crit* slices
// hold one entry per op, taken along its slowest gate→shard attempt,
// the path that sets the op's latency when a batch scatters.
type layerTimes struct {
	opSelf, gateSelf, wait, shardSelf  []float64
	critWait, critShardSelf, critStage []float64
	opDur                              []float64
	attempts, ops                      int
	respBytes                          int64 // extraction responses only
	patchShard                         []float64
}

// analyze splits the spans of the given ops into per-layer self times.
func analyze(spans []spanRec, ops map[int64]bool) layerTimes {
	children := map[int64][]spanRec{}
	var roots []spanRec
	for _, s := range spans {
		if !ops[s.Op] {
			continue
		}
		if s.Name == "op" {
			roots = append(roots, s)
			continue
		}
		children[s.Parent] = append(children[s.Parent], s)
	}
	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	var lt layerTimes
	for _, op := range roots {
		lt.ops++
		lt.opDur = append(lt.opDur, us(op.End-op.Start))
		gates := children[op.ID]
		lt.opSelf = append(lt.opSelf, us(selfTime(op, gates)))
		var crit [3]int64 // wait, shard self, stage along the slowest attempt
		var slowest int64 = -1
		for _, g := range gates {
			atts := children[g.ID]
			lt.attempts += len(atts)
			lt.gateSelf = append(lt.gateSelf, us(selfTime(g, atts)))
			for _, a := range atts {
				shards := children[a.ID]
				w := selfTime(a, shards)
				lt.wait = append(lt.wait, us(w))
				var ss, st int64
				for _, sh := range shards {
					self := selfTime(sh, children[sh.ID])
					ss += self
					st += sh.End - sh.Start - self
					lt.shardSelf = append(lt.shardSelf, us(self))
					if sh.Name == "shard:PATCH" {
						lt.patchShard = append(lt.patchShard, us(sh.End-sh.Start))
					} else {
						lt.respBytes += sh.Bytes
					}
				}
				if d := a.End - a.Start; d > slowest {
					slowest, crit = d, [3]int64{w, ss, st}
				}
			}
		}
		if slowest >= 0 {
			lt.critWait = append(lt.critWait, us(crit[0]))
			lt.critShardSelf = append(lt.critShardSelf, us(crit[1]))
			lt.critStage = append(lt.critStage, us(crit[2]))
		}
	}
	return lt
}
