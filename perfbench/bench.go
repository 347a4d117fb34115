package main

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"

	"syrup"
	"syrup/internal/trace"
)

// Host time is process CPU time (user + system, every thread): on a shared
// machine wall time also counts the time the process waits for a CPU,
// which swings far more between runs than the work it does.

// spans are the set-up phases, timed around the benchmark's own calls into
// the program. Their sum is the round's set-up time: host seconds spent
// before the first simulated event of each run.
type spans struct {
	host     time.Duration // syrup.NewHostApp / cluster member hosts
	policy   time.Duration // policy verify + optimise + JIT + deploy, ghOSt and adapt
	app      time.Duration // server construction, LSM preload
	workload time.Duration // load generator, flow pools
	cluster  time.Duration // cluster.New + Maglev table + flow split
	rollout  time.Duration // staged canary rollout
}

func (s *spans) total() time.Duration {
	return s.host + s.policy + s.app + s.workload + s.cluster + s.rollout
}

// timed adds fn's host time to d.
func timed(d *time.Duration, fn func()) {
	t0 := cpuTime()
	fn()
	*d += cpuTime() - t0
}

// meter accumulates the simulation phases of one round: host time, wall
// time, heap allocations, and the simulated work done.
type meter struct {
	wall    time.Duration
	cpu     time.Duration
	mallocs uint64
	bytes   uint64
	reqs    uint64 // requests that reached a NIC, warm-up through drain
	events  uint64 // engine events fired
}

// tracing is the traced-run state: one request recorder shared by the
// round's hosts (they run one after another) and the CPU-profile layer
// attribution of every simulation phase.
type tracing struct {
	rec    *trace.Recorder
	layers map[string]float64 // layer → CPU ns
	err    error
}

func newTracing() *tracing {
	return &tracing{rec: trace.New(0), layers: map[string]float64{}}
}

// recorder returns the request tracer to wire into hosts (nil untraced).
func (t *tracing) recorder() *trace.Recorder {
	if t == nil {
		return nil
	}
	return t.rec
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func peakRSSBytes() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Maxrss * 1024 // Linux reports kilobytes
}

// simulate runs one simulation phase under the meter (and, when traced,
// under the CPU profiler).
func (m *meter) simulate(tr *tracing, fn func()) {
	var prof bytes.Buffer
	profiling := false
	if tr != nil && tr.err == nil {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			tr.err = err
		} else {
			profiling = true
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c0, t0 := cpuTime(), time.Now()
	fn()
	m.wall += time.Since(t0)
	m.cpu += cpuTime() - c0
	runtime.ReadMemStats(&after)
	if profiling {
		pprof.StopCPUProfile()
		if err := attribute(prof.Bytes(), tr.layers); err != nil {
			tr.err = err
		}
	}
	m.mallocs += after.Mallocs - before.Mallocs
	m.bytes += after.TotalAlloc - before.TotalAlloc
}

// op is one operation: one simulated host run. It fails when it errors,
// panics, or fails a check on its outputs.
type op struct {
	name    string
	err     error
	checked bool   // err came from an output check, not an error or panic
	digest  string // simulated figures, compared across repetitions
	note    string // one-line summary of the run's simulated figures
}

func (o *op) fail(format string, args ...any) {
	if o.err == nil {
		o.err = fmt.Errorf(format, args...)
		o.checked = true
	}
}

// round is one repetition of a workload's whole set of operations.
type round struct {
	ops   []*op
	setup spans
	sim   meter
	// goodput sums, over the round's runs, completions within the
	// workload's latency limit per simulated second; p99us is the
	// latency-sensitive class's p99 on the workload's reference run.
	goodput float64
	p99us   float64
	// counts holds the per-layer counters read from the program after
	// each run, summed over the round (ratios are formed at the end).
	counts map[string]float64
}

func newRound() *round { return &round{counts: map[string]float64{}} }

// run executes fn as one operation, turning a panic into its failure.
// Every operation starts on a collected heap, so that garbage one run
// leaves behind is not charged to the next; the second collection also
// empties sync.Pool victim caches, so the allocations a run makes do not
// depend on what the run before it left pooled.
func (r *round) run(name string, fn func(o *op) error) *op {
	o := &op{name: name}
	r.ops = append(r.ops, o)
	runtime.GC()
	runtime.GC()
	func() {
		defer func() {
			if p := recover(); p != nil {
				o.err = fmt.Errorf("panic: %v", p)
			}
		}()
		if err := fn(o); err != nil && o.err == nil {
			o.err = err
		}
	}()
	return o
}

func (r *round) add(name string, v float64) { r.counts[name] += v }

// simulate runs fn as a simulation phase of host h and returns the
// requests h's NIC received during it.
func (r *round) simulate(tr *tracing, h *syrup.Host, fn func()) uint64 {
	rx, fired := h.NIC.Stats.Received, h.Eng.Fired()
	r.sim.simulate(tr, fn)
	reqs := h.NIC.Stats.Received - rx
	r.sim.reqs += reqs
	r.sim.events += h.Eng.Fired() - fired
	return reqs
}
