// Command perfbench is the repository's benchmark: it runs one named
// workload of the simulator from a seed for a given number of host
// seconds, checks the simulated outputs, and prints one JSON result line.
//
//	perfbench --workload rocksdb-sweep --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics from untraced runs;
// with --trace 1 it alternates untraced and traced runs and reports the
// per-layer metrics. See README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"syrup/internal/trace"
)

// minRounds is the fewest repetitions a run makes: the medians need three,
// the determinism check two.
const minRounds = 3

// layerTolerance bounds |Σ layer.*.host_s / traced CPU time − 1|. The
// profile samples at 100 Hz and each simulation phase is profiled on its
// own, so up to one 10 ms period of CPU goes unsampled at the end of every
// phase: about 8% on rocksdb-sweep, whose rounds have 56 short phases.
const layerTolerance = 0.15

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: rocksdb-sweep, rocksdb-scan, mica-fleet or adapt-burst")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 20, "host seconds to measure for")
	traced := flag.Int("trace", 0, "1 reports the per-layer metrics from traced runs")
	flag.Parse()
	fn, ok := workloads[*name]
	if !ok || *seconds < 1 || *traced < 0 || *traced > 1 {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *traced)
		os.Exit(2)
	}
	budget := time.Duration(*seconds) * time.Second
	var res *result
	var err error
	if *traced == 1 {
		res, err = runTraced(fn, *seed, budget)
	} else {
		res = runPlain(fn, *seed, budget)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// runPlain repeats the workload's round until the budget is spent and
// reports the end-to-end metrics as medians over the rounds.
func runPlain(fn workloadFn, seed uint64, budget time.Duration) *result {
	start := time.Now()
	var rounds []*round
	var longest time.Duration
	for len(rounds) < minRounds || time.Since(start)+longest <= budget {
		t0 := time.Now()
		rounds = append(rounds, fn(seed, nil))
		longest = max(longest, time.Since(t0))
		compare(rounds[0], rounds[len(rounds)-1], "repetition")
	}
	res := tally(rounds)
	med := func(f func(r *round) float64) float64 { return median(rounds, f) }
	perReq := func(v uint64, r *round) float64 { return ratio(float64(v), float64(r.sim.reqs)) }
	res.Metrics = map[string]metric{
		"setup_s":             {med(func(r *round) float64 { return r.setup.total().Seconds() }), "s"},
		"sim_req_per_host_s":  {med(func(r *round) float64 { return ratio(float64(r.sim.reqs), r.sim.cpu.Seconds()) }), "1/s"},
		"allocs_per_req":      {med(func(r *round) float64 { return perReq(r.sim.mallocs, r) }), "count"},
		"alloc_bytes_per_req": {med(func(r *round) float64 { return perReq(r.sim.bytes, r) }), "B"},
		"peak_rss_mb":         {float64(peakRSSBytes()) / 1e6, "MB"},
		"sim_goodput_rps":     {med(func(r *round) float64 { return r.goodput }), "1/s"},
		"sim_p99_us":          {med(func(r *round) float64 { return r.p99us }), "us"},
	}
	for _, o := range rounds[0].ops {
		if o.note != "" {
			fmt.Fprintf(os.Stderr, "%s: %s\n", o.name, o.note)
		}
	}
	for i, r := range rounds {
		fmt.Fprintf(os.Stderr, "round %d: setup %.3fs, sim %.3fs host %.3fs wall, %d reqs, %.0f req/host-s\n",
			i, r.setup.total().Seconds(), r.sim.cpu.Seconds(), r.sim.wall.Seconds(), r.sim.reqs,
			ratio(float64(r.sim.reqs), r.sim.cpu.Seconds()))
	}
	return res
}

// runTraced alternates untraced and traced rounds, checks that tracing
// leaves the simulated figures unchanged, and reports the per-layer
// metrics: counters from the program, stage latencies from its request
// tracer, host self-time per layer from a CPU profile of the simulation
// phases, set-up spans, and the per-layer microbenchmarks.
func runTraced(fn workloadFn, seed uint64, budget time.Duration) (*result, error) {
	start := time.Now()
	tr := newTracing()
	var plain, traced, all []*round
	var longest time.Duration
	for len(traced) < 2 || time.Since(start)+longest <= budget {
		t0 := time.Now()
		p := fn(seed, nil)
		t := fn(seed, tr)
		longest = max(longest, time.Since(t0))
		plain, traced, all = append(plain, p), append(traced, t), append(all, p, t)
		compare(plain[0], p, "repetition")
		compare(p, t, "traced run")
	}
	if tr.err != nil {
		return nil, fmt.Errorf("cpu profile: %w", tr.err)
	}
	mic, err := micro()
	if err != nil {
		return nil, err
	}
	res := tally(all)
	m := map[string]metric{}
	first := traced[0]
	count := func(name string) float64 { return first.counts[name] }
	reqs := float64(first.sim.reqs)
	m["sim.events_per_req"] = metric{ratio(float64(first.sim.events), reqs), "count"}
	for _, name := range []string{
		"nic.rx_pkts", "nic.ring_drops", "nic.xdp_drops",
		"netstack.backlog_drops", "netstack.socket_drops", "netstack.policy_drops", "netstack.noexec_drops",
		"hook.socket_select.runs", "hook.socket_select.faults", "hook.xdp.runs", "hook.xdp.faults",
		"hook.thread_sched.runs", "hook.thread_sched.faults",
		"ghost.messages", "rocksdb.gets", "rocksdb.scans", "rocksdb.puts", "mica.foreign",
		"obs.samples", "adapt.decisions", "syrupd.swaps",
	} {
		m[name] = metric{count(name), "count"}
	}
	m["kernel.busy_frac"] = metric{ratio(count("kernel.busy_ns"), count("kernel.cpu_ns")), "ratio"}
	m["kernel.switches_per_req"] = metric{ratio(count("kernel.switches"), reqs), "count"}
	m["ghost.commits_per_message"] = metric{ratio(count("ghost.commits"), count("ghost.messages")), "ratio"}
	m["cluster.flow_imbalance"] = metric{count("cluster.flow_imbalance"), "ratio"}
	for name, v := range mic {
		m[name] = metric{v, "ns"}
	}
	// The NIC stage (arrival to ring handoff) takes no simulated time in
	// any workload, so its p99 would read 0 on every run.
	for _, st := range []trace.Stage{trace.StageSoftirq, trace.StageProto, trace.StageSocket,
		trace.StageRunqueue, trace.StageOnCPU, trace.StageGhost} {
		m["stage."+st.String()+".p99_us"] = metric{float64(tr.rec.StageHistogram(st).Percentile(99)) / 1000, "us"}
	}

	// Layer self-times: CPU-profile nanoseconds per traced round.
	n := float64(len(traced))
	var sum float64
	for _, l := range layers {
		m["layer."+l+".host_s"] = metric{0, "s"}
	}
	for l, ns := range tr.layers {
		if !knownLayer(l) {
			l = "other"
		}
		v := m["layer."+l+".host_s"]
		v.Value += ns / 1e9 / n
		m["layer."+l+".host_s"] = v
		sum += ns / 1e9 / n
	}
	var cpu float64 // mean per traced round, like the layer self-times
	for _, r := range traced {
		cpu += r.sim.cpu.Seconds() / n
	}
	m["trace.sim_cpu_s"] = metric{cpu, "s"}
	m["trace.layer_sum_pct"] = metric{100 * ratio(sum, cpu), "%"}
	if d := ratio(sum, cpu) - 1; d > layerTolerance || d < -layerTolerance {
		res.Correct = false
		fmt.Fprintf(os.Stderr, "perfbench: layer self-times sum to %.3fs, traced CPU time %.3fs (tolerance %.0f%%)\n",
			sum, cpu, 100*layerTolerance)
	}
	hostOf := func(r *round) float64 { return r.sim.cpu.Seconds() }
	m["trace.overhead_pct"] = metric{100 * (ratio(median(traced, hostOf), median(plain, hostOf)) - 1), "%"}

	spanOf := map[string]func(s *spans) time.Duration{
		"host": func(s *spans) time.Duration { return s.host }, "policy": func(s *spans) time.Duration { return s.policy },
		"app": func(s *spans) time.Duration { return s.app }, "workload": func(s *spans) time.Duration { return s.workload },
		"cluster": func(s *spans) time.Duration { return s.cluster }, "rollout": func(s *spans) time.Duration { return s.rollout },
	}
	for name, f := range spanOf {
		m["setup."+name+"_s"] = metric{median(all, func(r *round) float64 { return f(&r.setup).Seconds() }), "s"}
	}
	res.Metrics = m
	return res, nil
}

// layers are the modules host time is attributed to; samples in any
// other package (the standard library with no program frame above it,
// the scheduler, the benchmark itself, cluster code, which runs only in
// set-up) count as "other".
var layers = []string{"sim", "nic", "netstack", "hook", "ebpf", "policy", "kernel", "ghost",
	"rocksdb", "mica", "workload", "obs", "adapt", "metrics", "syrupd", "trace",
	"gc", "malloc", "other"}

func knownLayer(l string) bool {
	for _, k := range layers {
		if k == l {
			return true
		}
	}
	return false
}

// compare fails every operation of r whose simulated figures differ from
// the same operation in ref.
func compare(ref, r *round, what string) {
	for i, o := range r.ops {
		if i >= len(ref.ops) || ref.ops[i].err != nil || o.err != nil {
			continue
		}
		if o.digest != ref.ops[i].digest {
			o.fail("%s changed the simulated figures:\n  first: %s\n  now:   %s", what, ref.ops[i].digest, o.digest)
		}
	}
}

// tally counts attempted and failed operations and reports each failure.
func tally(rounds []*round) *result {
	res := &result{Correct: true}
	for _, r := range rounds {
		for _, o := range r.ops {
			res.Attempted++
			if o.err == nil {
				continue
			}
			res.Failed++
			if o.checked {
				res.Correct = false
			}
			fmt.Fprintf(os.Stderr, "FAIL %s: %v\n", o.name, strings.TrimSpace(o.err.Error()))
		}
	}
	return res
}

// ratio is a/b, or 0 when b is 0 (a layer the workload never reaches).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func median(rounds []*round, f func(r *round) float64) float64 {
	v := make([]float64, len(rounds))
	for i, r := range rounds {
		v[i] = f(r)
	}
	sort.Float64s(v)
	if len(v)%2 == 1 {
		return v[len(v)/2]
	}
	return (v[len(v)/2-1] + v[len(v)/2]) / 2
}
