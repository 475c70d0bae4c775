package main

import (
	"context"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// opStat is one finished operation. Times are absolute; latency is
// measured from due, which for an open loop is the scheduled send
// time, so a stall also charges the operations queued behind it.
type opStat struct {
	kind     string // batch, stream, patch or docx
	class    string // the query class within the kind, when the mix has several
	due      time.Time
	sent     time.Time
	first    time.Time // first mapping visible to the caller
	done     time.Time
	err      error
	bytes    int // document text extracted
	mappings int
	span     int64 // op span ID, 0 when untraced
}

// traffic is one workload: a mix of operations against the served
// cluster.
type traffic interface {
	// setup registers spanners, stores documents and warms the
	// cluster; it is what setup_s times, after boot.
	setup(ctx context.Context, c *servedCluster) error
	// op performs operation i, whose inputs derive from the seed and i
	// alone, and checks its answer.
	op(ctx context.Context, c *servedCluster, i int) opStat
	// finalCheck verifies state the run left behind.
	finalCheck(ctx context.Context, c *servedCluster) error
	// rate is the open-loop rate in ops/s; 0 selects a closed loop.
	rate() float64
	// mid and tail place the gated latencies inside one op class's
	// mode rather than at the edge between two classes, where they
	// would jump with the mix. mid is a percentile of all ops, at the
	// middle of the most frequent class. tail is percentile q of the
	// ops of class, the slowest (of all ops when class is ""): the
	// share of slow ops in a run then moves no sample across it, and
	// the other classes' queueing behind a stall does not decide it.
	mid() float64
	tail() (class string, q float64)
	params() map[string]any
}

// window is one measured stretch of a run.
type window struct {
	start, end time.Time // end: the last operation's completion
	ops        []opStat
}

// drive runs ops first, first+1, … for dur with conns concurrent
// callers, each a closed loop when w.rate() is 0 and otherwise pulling
// the next scheduled op and waiting for its due time. It returns once
// every started op has finished, with the index to continue from.
func drive(ctx context.Context, w traffic, c *servedCluster, rec *recorder, traced bool,
	first int, dur time.Duration, conns int) (window, int) {
	var (
		next  atomic.Int64
		mu    sync.Mutex
		stats []opStat
		wg    sync.WaitGroup
	)
	next.Store(int64(first))
	start := time.Now()
	stop := start.Add(dur)
	rate := w.rate()
	for k := 0; k < conns; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				var due time.Time
				if rate > 0 {
					due = start.Add(time.Duration(float64(i-first) / rate * float64(time.Second)))
					if !due.Before(stop) {
						return
					}
					if d := time.Until(due); d > 0 {
						select {
						case <-time.After(d):
						case <-ctx.Done():
							return
						}
					}
				} else {
					due = time.Now()
					if !due.Before(stop) {
						return
					}
				}
				octx := ctx
				var span int64
				if traced {
					span = rec.newID()
					octx = withSpan(ctx, spanCtx{op: span, id: span})
				}
				s := w.op(octx, c, i)
				s.due, s.span = due, span
				if traced {
					// The op span starts at the send, not the due time: the
					// generator's queueing is reported as lateness instead.
					rec.add(spanRec{ID: span, Op: span, Name: "op", Start: rec.at(s.sent), End: rec.at(s.done)})
				}
				mu.Lock()
				stats = append(stats, s)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	win := window{start: start, end: start, ops: stats}
	for _, s := range stats {
		if s.done.After(win.end) {
			win.end = s.done
		}
	}
	return win, int(next.Load())
}

// summary is the end-to-end view of one window.
type summary struct {
	attempted, failed int
	firstErr          error
	elapsed           float64 // s
	mappings          float64 // returned by successful ops
	mbPerS, mapPerS   float64
	opMs, ttfmMs      []float64
	latenessMs        []float64
	byKind            map[string][]float64 // ms
	ttfmByKind        map[string][]float64
	byClass           map[string][]float64 // ms, ops with a class only
	ttfmByClass       map[string][]float64 // ms, extraction ops with a class only
}

// tails returns the op and first-mapping latencies the tail
// percentile is taken over: those of the ops of class, or of all ops
// when class is "".
func (s summary) tails(class string) (op, ttfm []float64) {
	if class == "" {
		return s.opMs, s.ttfmMs
	}
	return s.byClass[class], s.ttfmByClass[class]
}

func summarize(win window) summary {
	s := summary{attempted: len(win.ops), elapsed: win.end.Sub(win.start).Seconds(),
		byKind: map[string][]float64{}, ttfmByKind: map[string][]float64{},
		byClass: map[string][]float64{}, ttfmByClass: map[string][]float64{}}
	ms := func(d time.Duration) float64 { return float64(d) / 1e6 }
	var bytes float64
	for _, o := range win.ops {
		s.latenessMs = append(s.latenessMs, ms(o.sent.Sub(o.due)))
		lat, ttfm := ms(o.done.Sub(o.due)), ms(o.first.Sub(o.due))
		if o.err != nil {
			s.failed++
			if s.firstErr == nil {
				s.firstErr = o.err
			}
			lat, ttfm = math.Inf(1), math.Inf(1)
		} else {
			bytes += float64(o.bytes)
			s.mappings += float64(o.mappings)
		}
		s.opMs = append(s.opMs, lat)
		s.byKind[o.kind] = append(s.byKind[o.kind], lat)
		if o.class != "" {
			s.byClass[o.class] = append(s.byClass[o.class], lat)
		}
		if o.kind != "patch" {
			s.ttfmMs = append(s.ttfmMs, ttfm)
			s.ttfmByKind[o.kind] = append(s.ttfmByKind[o.kind], ttfm)
			if o.class != "" {
				s.ttfmByClass[o.class] = append(s.ttfmByClass[o.class], ttfm)
			}
		}
	}
	if s.elapsed > 0 {
		s.mbPerS = bytes / (1 << 20) / s.elapsed
		s.mapPerS = s.mappings / s.elapsed
	}
	return s
}
