package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"

	"syrup"
	"syrup/internal/adapt"
	"syrup/internal/apps/mica"
	"syrup/internal/apps/rocksdb"
	"syrup/internal/cluster"
	"syrup/internal/metrics"
	"syrup/internal/obs"
	"syrup/internal/policy"
	"syrup/internal/sim"
	"syrup/internal/workload"
)

// A workload builds one round: every operation it is made of, run one
// after another on one goroutine, with the output checks that relate
// them. tr is nil on untraced rounds.
type workloadFn func(seed uint64, tr *tracing) *round

var workloads = map[string]workloadFn{
	"rocksdb-sweep": rocksdbSweep,
	"rocksdb-scan":  rocksdbScan,
	"mica-fleet":    micaFleet,
	"adapt-burst":   adaptBurst,
}

// mix derives an independent, never-zero simulation seed for input i of
// the benchmark seed (splitmix64 finaliser).
func mix(seed, i uint64) uint64 {
	x := seed*0x9e3779b97f4a7c15 + i + 1
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	if x == 0 {
		x = 1
	}
	return x
}

func measureSec(w windows) float64 { return float64(w.measure) / 1e9 }

// --- rocksdb-sweep: the Fig. 2 shape -------------------------------------

var (
	sweepLoads = []float64{100_000, 200_000, 300_000, 350_000, 400_000, 425_000, 450_000}
	sweepWin   = windows{warmup: 10 * sim.Millisecond, measure: 60 * sim.Millisecond, drain: 20 * sim.Millisecond}
	// sweepRef is the reference load for sim_p99_us: round_robin below
	// its knee, with every flow pool's run pooled.
	sweepRef      = 300_000.0
	sweepDeadline = 200 * sim.Microsecond
)

const (
	sweepBatch = 64
	// sweepPools is the number of flow pools (seeds) each (policy, load)
	// point runs, as the paper's Fig. 2 aggregates several runs per point.
	sweepPools = 4
	// sweepKneeFactor: the knee is the lowest swept load at which
	// vanilla's p99 exceeds this multiple of its lightest-load p99.
	sweepKneeFactor = 2
	// analyticTol is the relative tolerance between the simulated mean
	// on-CPU time and the service model's mean at the lightest load.
	analyticTol = 0.01
)

func rocksdbSweep(seed uint64, tr *tracing) *round {
	r := newRound()
	pols := []string{"", policy.NameRoundRobin}
	// p99[k][pi][li] and ops[k][pi][li]: flow pool k, policy pi, load li.
	p99 := make([][][]float64, sweepPools)
	ops := make([][][]*op, sweepPools)
	ref := metrics.NewHistogram()
	for k := range p99 {
		p99[k] = [][]float64{make([]float64, len(sweepLoads)), make([]float64, len(sweepLoads))}
		ops[k] = [][]*op{make([]*op, len(sweepLoads)), make([]*op, len(sweepLoads))}
	}
	for li, load := range sweepLoads {
		for k := 0; k < sweepPools; k++ {
			for pi, pol := range pols {
				name := "vanilla"
				if pol != "" {
					name = pol
				}
				ops[k][pi][li] = r.run(fmt.Sprintf("%s@%.0f/%d", name, load, k), func(o *op) error {
					run, err := runRocks(r, tr, o, rocksPoint{
						seed: mix(seed, uint64(li*sweepPools+k)), load: load,
						cpus: 6, threads: 6, pin: true, flows: 50, batch: sweepBatch,
						classes:  []workload.Class{{Name: "GET", Weight: 1, Type: policy.ReqGET}},
						policy:   pol,
						defines:  map[string]int64{"NUM_THREADS": 6},
						service:  rocksdb.DefaultServiceModel,
						deadline: sweepDeadline,
						win:      sweepWin,
					})
					if err != nil {
						return err
					}
					all := run.res.All
					p99[k][pi][li] = p99us(run.res, "GET")
					o.note = fmt.Sprintf("p99 %.1fus drops %.2f%%", p99[k][pi][li], 100*all.DropFraction())
					r.goodput += float64(all.DeadlineHits) / measureSec(sweepWin)
					if pol != "" && load == sweepRef {
						ref.Merge(all.Latency)
					}
					if li == 0 {
						analyticCheck(o, seed, run)
					}
					return nil
				})
			}
		}
	}
	r.p99us = percentile(ref, 99) / 1000
	// The Fig. 2 claim, per flow pool: from the knee upward, round_robin's
	// p99 is no higher than vanilla's at every swept load.
	for k := range ops {
		van, rr := ops[k][0], ops[k][1]
		if van[0].err != nil {
			continue
		}
		knee := -1
		for li := range sweepLoads {
			if van[li].err == nil && p99[k][0][li] > sweepKneeFactor*p99[k][0][0] {
				knee = li
				break
			}
		}
		if knee < 0 {
			van[len(van)-1].fail("vanilla p99 never leaves %gx its light-load value: no knee", float64(sweepKneeFactor))
			continue
		}
		for li := knee; li < len(sweepLoads); li++ {
			if van[li].err == nil && rr[li].err == nil && p99[k][1][li] > p99[k][0][li] {
				rr[li].fail("round_robin p99 %.1fus > vanilla p99 %.1fus at %.0f RPS (knee %.0f)",
					p99[k][1][li], p99[k][0][li], sweepLoads[li], sweepLoads[knee])
			}
		}
	}
	return r
}

// analyticCheck compares the simulated mean on-CPU time per request (the
// workers' CPU time over requests served) with the mean the benchmark
// computes from rocksdb.DefaultServiceModel plus the fixed overheads.
func analyticCheck(o *op, seed uint64, run *rocksRun) {
	const draws = 200_000
	rng := rand.New(rand.NewPCG(seed, 0x5e41ce))
	var sum float64
	for i := 0; i < draws; i++ {
		sum += float64(rocksdb.DefaultServiceModel(rng, policy.ReqGET))
	}
	want := sum/draws + float64(recvOverhead+sendOverhead)
	var cpu sim.Time
	for _, th := range run.srv.Threads() {
		cpu += th.CPUTime()
	}
	served := run.srv.ProcessedGET + run.srv.ProcessedSCAN
	if served == 0 {
		o.fail("analytic check: no requests served")
		return
	}
	got := float64(cpu) / float64(served)
	if math.Abs(got-want)/want > analyticTol {
		o.fail("analytic check: mean on-CPU %.1fns vs service model mean %.1fns (tolerance %.0f%%)",
			got, want, 100*analyticTol)
	}
}

// --- rocksdb-scan: the Fig. 8 shape --------------------------------------

var (
	scanLoads    = []float64{3_000, 6_000, 9_000, 12_000}
	scanWin      = windows{warmup: 50 * sim.Millisecond, measure: 500 * sim.Millisecond, drain: 100 * sim.Millisecond}
	scanDeadline = 5 * sim.Millisecond
	scanMix      = []workload.Class{
		{Name: "GET", Weight: 0.5, Type: policy.ReqGET},
		{Name: "SCAN", Weight: 0.5, Type: policy.ReqSCAN},
	}
)

// rocksdbScan's reference figure for sim_p99_us is the GET p99 of all its
// runs pooled: one run alone holds too few GETs for a steady tail.
func rocksdbScan(seed uint64, tr *tracing) *round {
	r := newRound()
	gets := metrics.NewHistogram()
	for li, load := range scanLoads {
		r.run(fmt.Sprintf("scan_avoid+ghost@%.0f", load), func(o *op) error {
			run, err := runRocks(r, tr, o, rocksPoint{
				seed: mix(seed, uint64(li)), load: load,
				cpus: 6, threads: 36, pin: false, flows: 1024, batch: 0,
				classes:  scanMix,
				policy:   policy.NameScanAvoid,
				defines:  map[string]int64{"NUM_THREADS": 36},
				ghost:    true,
				service:  rocksdb.DefaultServiceModel,
				deadline: scanDeadline,
				win:      scanWin,
			})
			if err != nil {
				return err
			}
			get, scan := p99us(run.res, "GET"), p99us(run.res, "SCAN")
			o.note = fmt.Sprintf("GET p99 %.1fus SCAN p99 %.1fus drops %.2f%%", get, scan, 100*run.res.All.DropFraction())
			r.goodput += float64(run.res.All.DeadlineHits) / measureSec(scanWin)
			gets.Merge(run.res.PerClass["GET"].Latency)
			// GET-priority must keep GETs ahead of SCANs.
			if get >= scan {
				o.fail("GET p99 %.1fus >= SCAN p99 %.1fus under GET-priority", get, scan)
			}
			return nil
		})
	}
	r.p99us = percentile(gets, 99) / 1000
	return r
}

// --- mica-fleet: sharded MICA behind Maglev ------------------------------

const (
	micaPort    = 9100
	micaApp     = 2
	micaUID     = 1001
	micaThreads = 8
	fleetHosts  = 4
	fleetFlows  = 1 << 20
	fleetLoad   = 2_400_000.0
	// fleetSigmas bounds each host's flow count around the share its
	// Maglev table entries predict, in binomial standard deviations.
	fleetSigmas = 6
)

var (
	fleetWin      = windows{warmup: 20 * sim.Millisecond, measure: 100 * sim.Millisecond, drain: 10 * sim.Millisecond}
	fleetDeadline = 100 * sim.Microsecond
)

func micaFleet(seed uint64, tr *tracing) *round {
	r := newRound()
	if err := runFleet(r, seed, tr); err != nil {
		// A set-up failure fails every member's run.
		for i := len(r.ops); i < fleetHosts; i++ {
			r.run(cluster.MemberName(i), func(*op) error { return err })
		}
	}
	return r
}

func runFleet(r *round, seed uint64, tr *tracing) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("fleet set-up panic: %v", p)
		}
	}()
	var (
		cl    *cluster.Cluster
		parts []workload.Config
	)
	runtime.GC()
	timed(&r.setup.cluster, func() {
		cl, err = cluster.New(cluster.Config{
			Hosts: fleetHosts, Seed: mix(seed, 0),
			Host: syrup.HostConfig{NumCPUs: micaThreads, NICQueues: micaThreads, Trace: tr.recorder()},
		})
	})
	if err != nil {
		return err
	}
	// The flow pool is the largest allocation of any workload; start it
	// on a collected heap so the peak resident set does not depend on
	// where the collector happened to be.
	runtime.GC()
	timed(&r.setup.cluster, func() {
		parts = cl.Split(workload.Config{
			Rate: fleetLoad, Flows: fleetFlows, DstPort: micaPort, KeySpace: 1 << 20,
			Deadline: fleetDeadline,
			Classes: []workload.Class{
				{Name: "GET", Weight: 0.5, Type: policy.ReqGET},
				{Name: "PUT", Weight: 0.5, Type: policy.ReqPUT},
			},
			Warmup: fleetWin.warmup, Measure: fleetWin.measure, Drain: fleetWin.drain,
		})
	})
	gens := make([]*workload.Generator, fleetHosts)
	srvs := make([]*mica.Server, fleetHosts)
	for i, m := range cl.Members {
		timed(&r.setup.host, func() { _, err = m.Host.RegisterApp(micaApp, micaUID, micaPort) })
		if err != nil {
			return err
		}
		part := parts[i]
		part.KeyShard, part.KeyShards = i, fleetHosts
		timed(&r.setup.workload, func() { gens[i] = workload.New(m.Host.Eng, m.Host.NIC, part) })
		timed(&r.setup.app, func() {
			srvs[i] = mica.NewServer(m.Host.Eng, m.Host.Machine, m.Host.Stack, mica.Config{
				Port: micaPort, App: micaApp, NumThreads: micaThreads, Mode: mica.ModeSyrupSW,
				Shard: i, NumShards: fleetHosts, OnComplete: gens[i].Complete,
			})
			srvs[i].Start()
		})
	}
	var rep *cluster.RolloutReport
	timed(&r.setup.rollout, func() {
		rep, err = cl.Rollout(cluster.RolloutConfig{
			App: micaApp, Hook: syrup.HookXDPSkb, Policy: policy.NameMicaHash,
			Defines: map[string]int64{"NUM_EXECUTORS": micaThreads},
		})
	})
	if err != nil {
		return fmt.Errorf("rollout: %w", err)
	}
	if rep.Aborted {
		return fmt.Errorf("rollout aborted: %s", rep)
	}

	// Flow balance: each host's share of the pool against the share its
	// Maglev table entries predict.
	counts := cl.Table.Counts()
	size := float64(cl.Table.Size())
	maxFlows, balanceErr := 0, error(nil)
	for i, part := range parts {
		n := len(part.FlowSet)
		maxFlows = max(maxFlows, n)
		p := float64(counts[i]) / size
		want := fleetFlows * p
		bound := fleetSigmas*math.Sqrt(fleetFlows*p*(1-p)) + 1
		if math.Abs(float64(n)-want) > bound && balanceErr == nil {
			balanceErr = fmt.Errorf("%s holds %d flows; its %d of %.0f table entries predict %.0f +/- %.0f",
				cl.Members[i].Name, n, counts[i], size, want, bound)
		}
	}
	r.add("cluster.flow_imbalance", float64(maxFlows)/(float64(fleetFlows)/fleetHosts))

	for i, m := range cl.Members {
		r.run(m.Name, func(o *op) error {
			h := m.Host
			foreign := srvs[i].Foreign
			var res *workload.Result
			reqs := r.simulate(tr, h, func() { res = gens[i].RunToCompletion() })
			hostCounters(r, h, fleetWin.total())
			r.add("mica.foreign", float64(srvs[i].Foreign))
			r.goodput += float64(res.All.DeadlineHits) / measureSec(fleetWin)
			if i == 0 {
				r.p99us = p99us(res, "GET")
			}
			o.note = fmt.Sprintf("%d flows, GET p99 %.1fus, drops %.2f%%", len(parts[i].FlowSet),
				p99us(res, "GET"), 100*res.All.DropFraction())
			if d := srvs[i].Foreign - foreign; d != 0 {
				o.fail("%d foreign requests from workload traffic", d)
			}
			if balanceErr != nil {
				o.fail("maglev balance: %v", balanceErr)
			}
			var completed uint64
			for t := 0; t < micaThreads; t++ {
				p := srvs[i].Partition(t)
				completed += p.Gets + p.Puts
			}
			if err := conserve(h, completed, srvs[i].Foreign); err != nil {
				o.fail("%v", err)
			}
			o.digest = fmt.Sprintf("%s foreign=%d", digest(res, reqs, h.Eng.Fired()), srvs[i].Foreign)
			return nil
		})
	}
	return nil
}

// --- adapt-burst: diurnal + burst, two tenants ---------------------------

const (
	adaptLSUser uint32 = 1
	adaptBEUser uint32 = 2
)

var (
	adaptWin      = windows{warmup: 100 * sim.Millisecond, measure: 500 * sim.Millisecond, drain: 150 * sim.Millisecond}
	adaptPeriod   = 100 * sim.Microsecond
	adaptDeadline = 400 * sim.Microsecond
	adaptClasses  = []workload.Class{
		{Name: "LS", Weight: 0.4, Type: policy.ReqGET, UserID: adaptLSUser},
		{Name: "BE", Weight: 0.6, Type: policy.ReqGET, UserID: adaptBEUser},
	}
)

const (
	adaptCalm       = 160_000.0
	adaptPeak       = 600_000.0
	adaptSLOTarget  = 80.0 // µs, LS windowed p99
	adaptRecoverRPS = 280_000.0
	adaptTokenRate  = 350_000.0
)

// adaptRate is the offered load: a ±15% diurnal sine over 250ms around
// the calm rate, with a burst that ramps over 10ms from 150ms into the
// measure window, holds the peak for 100ms, and ramps back.
func adaptRate(t sim.Time) float64 {
	const (
		period = 250 * sim.Millisecond
		ramp   = 10 * sim.Millisecond
	)
	b0 := adaptWin.warmup + 150*sim.Millisecond
	b1, b2 := b0+ramp, b0+ramp+100*sim.Millisecond
	b3 := b2 + ramp
	rate := adaptCalm * (1 + 0.15*math.Sin(2*math.Pi*float64(t%period)/float64(period)))
	var env float64
	switch {
	case t < b0 || t >= b3:
	case t < b1:
		env = float64(t-b0) / float64(ramp)
	case t < b2:
		env = 1
	default:
		env = float64(b3-t) / float64(ramp)
	}
	return rate + env*(adaptPeak-adaptCalm)
}

// adaptRules fires on the LS windowed-p99 SLO burn by swapping to shed,
// and clears on offered load (the shed repairs the p99 itself) by
// swapping back to round_robin.
func adaptRules() *adapt.Config {
	defines := map[string]int64{"NUM_THREADS": 6, "SHED_USER": int64(adaptBEUser)}
	burn := func(name, series string, target float64) *obs.SLO {
		return &obs.SLO{Name: name, Series: series, Target: target, Budget: 0.5,
			Short: 3 * adaptPeriod, Long: 6 * adaptPeriod}
	}
	return &adapt.Config{
		Period: adaptPeriod,
		Rules: []adapt.Rule{{
			Name:        "ls_burn",
			Detect:      adapt.DetectorSpec{Kind: "slo_burn", SLO: burn("ls_p99", "latency_LS_win_p99_us", adaptSLOTarget)},
			ClearDetect: &adapt.DetectorSpec{Kind: "slo_burn", SLO: burn("overload", "offered_rps", adaptRecoverRPS)},
			OnFire: adapt.ActionSpec{Kind: "swap", App: rocksApp, Hook: string(syrup.HookSocketSelect),
				Policy: policy.NameShed, Defines: defines},
			OnClear: &adapt.ActionSpec{Kind: "swap", App: rocksApp, Hook: string(syrup.HookSocketSelect),
				Policy: policy.NameRoundRobin, Defines: defines},
			Sustain:    2,
			ClearAfter: 30,
			Cooldown:   20 * adaptPeriod,
		}},
	}
}

// adaptService places 6-core saturation slightly below 400K RPS.
func adaptService(rng interface{ Float64() float64 }, _ uint64) sim.Time {
	return sim.Time(12_000 + 1_700*rng.Float64())
}

func adaptBurst(seed uint64, tr *tracing) *round {
	r := newRound()
	rr := map[string]int64{"NUM_THREADS": 6}
	shed := map[string]int64{"NUM_THREADS": 6, "SHED_USER": int64(adaptBEUser)}
	contestants := []struct {
		name, policy string
		defines      map[string]int64
		adaptive     bool
	}{
		{"vanilla", "", nil, false},
		{"round_robin", policy.NameRoundRobin, rr, false},
		{"token", policy.NameToken, nil, false},
		{"shed", policy.NameShed, shed, false},
		{"adaptive", policy.NameRoundRobin, rr, true},
	}
	hostSeed := mix(seed, 0)
	goodput := make([]float64, len(contestants))
	var adaptiveOp *op
	for ci, c := range contestants {
		o := r.run(c.name, func(o *op) error {
			pt := rocksPoint{
				seed: hostSeed, load: adaptCalm, rateFn: adaptRate,
				cpus: 6, threads: 6, pin: true, flows: 1024, batch: 0,
				classes:   adaptClasses,
				policy:    c.policy,
				defines:   c.defines,
				service:   adaptService,
				tokenRate: adaptTokenRate, lsUser: adaptLSUser, beUser: adaptBEUser,
				deadline:  adaptDeadline,
				win:       adaptWin,
				obsPeriod: adaptPeriod,
			}
			if c.adaptive {
				pt.adapt = adaptRules()
			}
			run, err := runRocks(r, tr, o, pt)
			if err != nil {
				return err
			}
			goodput[ci] = float64(run.res.All.DeadlineHits) / measureSec(adaptWin)
			r.goodput += goodput[ci]
			// workload.Result labels every lost request socket-overflow;
			// the layers' own counters say where each was dropped.
			nic, st := run.host.NIC.Stats, run.host.Stack.Stats
			o.note = fmt.Sprintf("goodput %.0f RPS, LS p99 %.1fus; workload.Result drops %v; layer drops: nic ring %d, netstack socket %d policy %d backlog %d",
				goodput[ci], p99us(run.res, "LS"), run.res.All.Drops, nic.DroppedRing, st.SocketDrops, st.PolicyDrops, st.BacklogDrops)
			if c.adaptive {
				ls := run.res.PerClass["LS"]
				r.p99us = p99us(run.res, "LS")
				if miss := ls.Offered - ls.DeadlineHits; miss != 0 {
					o.fail("%d LS deadline misses under the adaptive controller", miss)
				}
			}
			return nil
		})
		if c.adaptive {
			adaptiveOp = o
		}
	}
	for ci, c := range contestants[:len(contestants)-1] {
		if adaptiveOp.err == nil && r.ops[ci].err == nil && goodput[len(goodput)-1] <= goodput[ci] {
			adaptiveOp.fail("adaptive goodput %.0f RPS <= static %s %.0f RPS", goodput[len(goodput)-1], c.name, goodput[ci])
		}
	}
	return r
}
