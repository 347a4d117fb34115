package main

import (
	"fmt"
	"math"
	"sort"

	"syrup"
	"syrup/internal/adapt"
	"syrup/internal/apps/rocksdb"
	"syrup/internal/ebpf"
	"syrup/internal/ghost"
	"syrup/internal/kernel"
	"syrup/internal/metrics"
	"syrup/internal/obs"
	"syrup/internal/policy"
	"syrup/internal/sim"
	"syrup/internal/workload"
)

const (
	rocksPort = 9000
	rocksApp  = 1
	rocksUID  = 1000
)

// windows are one run's simulated phases.
type windows struct {
	warmup, measure, drain sim.Time
}

func (w windows) total() sim.Time { return w.warmup + w.measure + w.drain }

// rocksPoint is one RocksDB host run.
type rocksPoint struct {
	seed    uint64
	load    float64
	rateFn  func(sim.Time) float64
	cpus    int
	threads int
	pin     bool
	flows   int
	batch   int
	classes []workload.Class
	// policy is the socket-select built-in ("" keeps Linux hash
	// selection); defines are its deploy-time constants.
	policy  string
	defines map[string]int64
	// ghost runs the ghOSt GET-priority thread policy on cpus-1 workers.
	ghost bool
	// service is the per-request service model (DefaultServiceModel when
	// nil); tokenRate configures the token policy's refill agent.
	service   rocksdb.ServiceModel
	tokenRate float64
	lsUser    uint32
	beUser    uint32
	deadline  sim.Time
	win       windows
	adapt     *adapt.Config
	obsPeriod sim.Time
}

// The per-request syscall overheads the server is built with; the
// analytic check adds them to the service model's mean.
const (
	recvOverhead = 1250 * sim.Nanosecond
	sendOverhead = 1250 * sim.Nanosecond
)

type rocksRun struct {
	host *syrup.Host
	srv  *rocksdb.Server
	res  *workload.Result
}

// runRocks builds a RocksDB host through syrupd, runs the load through
// warm-up, measurement and drain, reads the layers' counters, and checks
// request conservation.
func runRocks(r *round, tr *tracing, o *op, pt rocksPoint) (*rocksRun, error) {
	var tele *obs.Config
	if pt.obsPeriod > 0 {
		tele = &obs.Config{Period: pt.obsPeriod}
	}
	var (
		host *syrup.Host
		app  *syrup.App
		err  error
	)
	timed(&r.setup.host, func() {
		host, app, err = syrup.NewHostApp(syrup.HostConfig{
			Seed:      pt.seed,
			NumCPUs:   pt.cpus,
			NICQueues: pt.cpus, // one RX queue per core
			Batch:     pt.batch,
			Trace:     tr.recorder(),
			Telemetry: tele,
		}, rocksApp, rocksUID, rocksPort)
	})
	if err != nil {
		return nil, fmt.Errorf("host: %w", err)
	}

	var gen *workload.Generator
	timed(&r.setup.workload, func() {
		gen = workload.New(host.Eng, host.NIC, workload.Config{
			Rate:     pt.load,
			RateFn:   pt.rateFn,
			Deadline: pt.deadline,
			Classes:  pt.classes,
			Flows:    pt.flows,
			DstPort:  rocksPort,
			Warmup:   pt.win.warmup,
			Measure:  pt.win.measure,
			Drain:    pt.win.drain,
		})
		instrument(r, host, gen, pt.classes)
	})

	// scan_state is shared by the application (userspace updates), the
	// SCAN Avoid socket policy and the ghOSt GET-priority policy.
	var scanState *syrup.Map
	timed(&r.setup.policy, func() {
		scanState, err = app.CreateMap(ebpf.MapSpec{
			Name: "scan_state", Type: ebpf.MapArray, KeySize: 4, ValueSize: 8, MaxEntries: 64,
		})
	})
	if err != nil {
		return nil, fmt.Errorf("scan_state map: %w", err)
	}

	var srv *rocksdb.Server
	timed(&r.setup.app, func() {
		srv = rocksdb.NewServer(host.Eng, host.Machine, host.Stack, rocksdb.Config{
			Port:         rocksPort,
			App:          rocksApp,
			NumThreads:   pt.threads,
			PinToCores:   pt.pin,
			Service:      pt.service,
			RecvOverhead: recvOverhead,
			SendOverhead: sendOverhead,
			ScanState:    scanState.Raw(),
			OnComplete:   gen.Complete,
			Tracer:       tr.recorder(),
		})
	})

	// The socket-select policy attaches to the server's reuseport group.
	timed(&r.setup.policy, func() {
		if pt.policy == "" {
			return
		}
		var dep *syrup.Deployment
		dep, err = app.DeployBuiltin(pt.policy, syrup.HookSocketSelect, pt.defines)
		if err == nil && pt.policy == policy.NameToken {
			const epoch = 100 * sim.Microsecond
			agent := &policy.TokenAgent{
				Tokens: dep.Maps["tokens"], LSUser: pt.lsUser, BEUser: pt.beUser,
				PerEpoch: uint64(pt.tokenRate * float64(epoch) / 1e9), Epoch: epoch,
			}
			agent.Start(host.Eng)
		}
	})
	if err != nil {
		return nil, fmt.Errorf("deploy %s: %w", pt.policy, err)
	}

	timed(&r.setup.policy, func() {
		if pt.ghost {
			err = deployGetPriority(app, srv, scanState, pt.cpus)
		}
		if err == nil && pt.adapt != nil {
			_, err = host.Daemon.EnableAdapt(*pt.adapt)
		}
	})
	if err != nil {
		return nil, fmt.Errorf("thread/adapt policy: %w", err)
	}
	timed(&r.setup.app, srv.Start)

	store := srv.Store()
	gets, scans, puts := store.Gets, store.Scans, store.Puts
	var res *workload.Result
	reqs := r.simulate(tr, host, func() { res = gen.RunToCompletion() })

	r.add("rocksdb.gets", float64(store.Gets-gets))
	r.add("rocksdb.scans", float64(store.Scans-scans))
	r.add("rocksdb.puts", float64(store.Puts-puts))
	hostCounters(r, host, pt.win.total())
	if g := host.Stack.LookupGroup(rocksPort); g != nil {
		st := g.Hook().Stats()
		r.add("hook.socket_select.runs", float64(st.Runs))
		r.add("hook.socket_select.faults", float64(st.Faults))
		if l := g.Hook().Link(); l != nil {
			r.add("syrupd.swaps", float64(l.Swaps()))
		}
	}
	if ctl := host.Daemon.AdaptController(); ctl != nil {
		r.add("adapt.decisions", float64(len(ctl.History())))
	}

	if err := conserve(host, srv.ProcessedGET+srv.ProcessedSCAN, 0); err != nil {
		o.fail("%v", err)
	}
	o.digest = digest(res, reqs, host.Eng.Fired())
	return &rocksRun{host: host, srv: srv, res: res}, nil
}

// deployGetPriority installs the ghOSt GET-priority policy: the agent
// takes the last core and reads the request type each worker is serving
// from the scan_state map the application writes.
func deployGetPriority(app *syrup.App, srv *rocksdb.Server, scanState *syrup.Map, cpus int) error {
	slotOf := make(map[int]int, len(srv.Threads()))
	for i, th := range srv.Threads() {
		slotOf[th.ID] = i
	}
	pol := &policy.GetPriority{TypeOf: func(t *kernel.Thread) uint64 {
		v, _ := scanState.LookupElem(uint32(slotOf[t.ID]))
		return v
	}}
	workers := make([]int, cpus-1)
	for i := range workers {
		workers[i] = i
	}
	agent, err := app.DeployThreadPolicy(pol, cpus-1, workers, ghost.Config{})
	if err != nil {
		return err
	}
	for _, th := range srv.Threads() {
		if err := agent.Register(th); err != nil {
			return err
		}
	}
	return nil
}

// instrument registers the workload-facing telemetry series on a host
// built with a sampler: completion and offered rates, the drop rate, and
// per-class cumulative and windowed latency percentiles (the series the
// adapt controller's detectors read). A tick gauge counts the sampler's
// samples. No-op without telemetry.
func instrument(r *round, host *syrup.Host, gen *workload.Generator, classes []workload.Class) {
	if host.Obs == nil {
		return
	}
	live := gen.LiveStats()
	host.Obs.Rate("rps", func() float64 {
		var n uint64
		for _, st := range live {
			n += st.Completed
		}
		return float64(n)
	})
	host.Obs.Rate("offered_rps", func() float64 {
		var n uint64
		for _, st := range live {
			n += st.Offered
		}
		return float64(n)
	})
	host.Obs.Rate("drop_rate", func() float64 {
		return float64(host.Stack.Stats.TotalDrops() + host.NIC.Stats.DroppedRing + host.NIC.Stats.DroppedByXDP)
	})
	for i, c := range classes {
		host.Obs.Histogram("latency_"+c.Name, live[i].Latency)
		host.Obs.WindowHistogram("latency_"+c.Name, live[i].Latency)
	}
	host.Obs.Gauge("bench_ticks", func() float64 {
		r.counts["obs.samples"]++
		return 0
	})
}

// hostCounters reads the NIC, netstack, XDP hook, kernel and ghOSt
// counters of a host after its run.
func hostCounters(r *round, h *syrup.Host, span sim.Time) {
	r.add("nic.rx_pkts", float64(h.NIC.Stats.Received))
	r.add("nic.ring_drops", float64(h.NIC.Stats.DroppedRing))
	r.add("nic.xdp_drops", float64(h.NIC.Stats.DroppedByXDP))
	st := h.Stack.Stats
	r.add("netstack.backlog_drops", float64(st.BacklogDrops))
	r.add("netstack.socket_drops", float64(st.SocketDrops))
	r.add("netstack.policy_drops", float64(st.PolicyDrops))
	r.add("netstack.noexec_drops", float64(st.NoExecutorDrops))
	xdp := h.Stack.XDP().Stats()
	r.add("hook.xdp.runs", float64(xdp.Runs))
	r.add("hook.xdp.faults", float64(xdp.Faults))
	if m := h.Machine; m != nil {
		for i := 0; i < m.NumCPUs(); i++ {
			c := m.CPU(kernel.CPUID(i))
			r.add("kernel.busy_ns", float64(c.BusyTime))
			r.add("kernel.switches", float64(c.Switches))
		}
		r.add("kernel.cpu_ns", float64(m.NumCPUs())*float64(span))
	}
	if a := h.Daemon.App(rocksApp); a != nil && a.Agent() != nil {
		ag := a.Agent()
		r.add("ghost.messages", float64(ag.Messages))
		r.add("ghost.commits", float64(ag.Commits))
		hs := ag.Hook().Stats()
		r.add("hook.thread_sched.runs", float64(hs.Runs))
		r.add("hook.thread_sched.faults", float64(hs.Faults))
	}
}

// conserve checks per-host request conservation: every packet the NIC
// received was dropped by the NIC or the netstack, completed by the
// application, or (sharded MICA) refused as another shard's key.
func conserve(h *syrup.Host, completed, foreign uint64) error {
	rx := h.NIC.Stats.Received
	nicDrops := h.NIC.Stats.DroppedRing + h.NIC.Stats.DroppedByXDP
	stackDrops := h.Stack.Stats.TotalDrops()
	if rx != nicDrops+stackDrops+completed+foreign {
		return fmt.Errorf("%s: conservation: NIC received %d != NIC drops %d + netstack drops %d + completions %d + foreign %d",
			h.Name, rx, nicDrops, stackDrops, completed, foreign)
	}
	return nil
}

// digest renders a run's simulated figures; repetitions of one seed must
// reproduce it exactly.
func digest(res *workload.Result, reqs, fired uint64) string {
	names := make([]string, 0, len(res.PerClass))
	for n := range res.PerClass {
		names = append(names, n)
	}
	sort.Strings(names)
	s := fmt.Sprintf("reqs=%d events=%d", reqs, fired)
	for _, n := range names {
		st := res.PerClass[n]
		h := st.Latency
		s += fmt.Sprintf(" %s[offered=%d completed=%d hits=%d drops=%d p50=%d p99=%d p999=%d max=%d mean=%.3f]",
			n, st.Offered, st.Completed, st.DeadlineHits, st.TotalDrops(),
			h.Percentile(50), h.Percentile(99), h.Percentile(99.9), h.Max(), h.Mean())
	}
	return s
}

// p99us is a class's simulated p99 latency in microseconds.
func p99us(res *workload.Result, class string) float64 {
	return percentile(res.PerClass[class].Latency, 99) / 1000
}

// percentile refines the histogram's bucketed percentile (the lower bound
// of the bucket holding the rank, 1/64 relative resolution) by placing the
// rank linearly among the ranks that share its bucket, so that nearby
// distributions do not all read the same bucket boundary.
func percentile(h *metrics.Histogram, p float64) float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	rank := uint64(math.Ceil(p / 100 * float64(n)))
	rank = min(max(rank, 1), n)
	at := func(r uint64) int64 { return h.Percentile((float64(r) - 0.5) * 100 / float64(n)) }
	v := at(rank)
	// Ranks lo..hi read v; at is monotone in the rank.
	lo := sort.Search(int(rank), func(i int) bool { return at(uint64(i)+1) >= v }) + 1
	hi := int(rank) + sort.Search(int(n-rank), func(i int) bool { return at(rank+uint64(i)+1) > v })
	width := 1.0
	if v >= 64 {
		width = math.Exp2(math.Floor(math.Log2(float64(v))) - 6)
	}
	return float64(v) + width*(float64(rank)-float64(lo)+0.5)/float64(hi-lo+1)
}
