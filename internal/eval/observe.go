package eval

import (
	"time"

	"spanners/internal/obs"
	"spanners/internal/span"
)

// EnumerateObserved streams ⟦A⟧_d exactly like Enumerate — same
// strategy selection, same mapping set, same order — while reporting
// instrumentation through o: one Stage callback per completed pipeline
// phase (co-reach-sweep / enumerate on the sequential walk; eval /
// forward-sweep / co-reach-sweep / candidate-sweep / enumerate on the
// filtered fallback) and one Delay callback per emitted mapping with
// the time since the previous emission. The first delay sample
// measures time-to-first-result, including the preparatory sweeps —
// that is the delay a streaming client actually experiences, and the
// quantity the polynomial-delay bound of Theorems 5.1/5.7 speaks
// about.
//
// A nil observer (or one with both callbacks nil) delegates straight
// to Enumerate, so the uninstrumented path pays two pointer tests.
func (e *Engine) EnumerateObserved(d *span.Document, o *obs.StageObserver, yield func(span.Mapping) bool) {
	if o == nil || (o.Stage == nil && o.Delay == nil) {
		e.Enumerate(d, yield)
		return
	}
	stage := o.Stage
	if stage == nil {
		stage = func(string, time.Duration) {}
	}
	if o.Delay != nil {
		inner := yield
		last := time.Now()
		yield = func(m span.Mapping) bool {
			now := time.Now()
			o.Delay(now.Sub(last))
			last = now
			return inner(m)
		}
	}

	// Adjacent stages share one clock reading: the end of a stage is
	// the start of the next, halving the time.Now calls on the hot
	// request path.
	if e.sequential {
		t0 := time.Now()
		if e.prefilterRejects(d) {
			stage(obs.StageCoReachSweep, time.Since(t0))
			return
		}
		bwd := e.backwardReachProg(d)
		t1 := time.Now()
		stage(obs.StageCoReachSweep, t1.Sub(t0))
		e.enumerateSequentialProgFrom(d, bwd, yield)
		stage(obs.StageEnumerate, time.Since(t1))
		return
	}

	t0 := time.Now()
	nonEmpty := e.Eval(d, span.Extended{})
	t1 := time.Now()
	stage(obs.StageEval, t1.Sub(t0))
	if !nonEmpty {
		return
	}
	fwd := e.forwardReachProg(d)
	t2 := time.Now()
	stage(obs.StageForwardSweep, t2.Sub(t1))
	bwd := e.backwardReachProg(d)
	t3 := time.Now()
	stage(obs.StageCoReachSweep, t3.Sub(t2))
	candidates := e.candidateSpansProgFrom(d, fwd, bwd)
	t1 = time.Now()
	stage(obs.StageCandidateSweep, t1.Sub(t3))
	e.enumerateFilteredFrom(d, candidates, yield)
	stage(obs.StageEnumerate, time.Since(t1))
}
