package main

import (
	"fmt"
	"sort"
	"time"

	"syrup"
	"syrup/internal/apps/rocksdb"
	"syrup/internal/cluster"
	"syrup/internal/ebpf"
	"syrup/internal/nic"
	"syrup/internal/policy"
	"syrup/internal/sim"
)

// The per-layer microbenchmarks time public calls directly. Each reports
// the median of microBatches batches, in host nanoseconds per call; a
// batch makes as many calls as fill microBatchTime.
const (
	microBatches   = 5
	microBatchTime = 20 * time.Millisecond
)

// sink keeps measured calls' results live.
var sink uint64

func medianNS(body func(n int)) float64 {
	n := 1
	for {
		t0 := time.Now()
		body(n)
		if time.Since(t0) >= microBatchTime {
			break
		}
		n *= 2
	}
	per := make([]float64, microBatches)
	for b := range per {
		t0 := time.Now()
		body(n)
		per[b] = float64(time.Since(t0).Nanoseconds()) / float64(n)
	}
	sort.Float64s(per)
	return per[len(per)/2]
}

// microPolicies are the loaded policies the workloads run, with the hook
// and deploy-time constants each is deployed with.
var microPolicies = []struct {
	name    string
	hook    syrup.Hook
	defines map[string]int64
	port    uint16
}{
	{policy.NameRoundRobin, syrup.HookSocketSelect, map[string]int64{"NUM_THREADS": 6}, rocksPort},
	{policy.NameScanAvoid, syrup.HookSocketSelect, map[string]int64{"NUM_THREADS": 36}, rocksPort},
	{policy.NameMicaHash, syrup.HookXDPSkb, map[string]int64{"NUM_EXECUTORS": micaThreads}, micaPort},
	{policy.NameShed, syrup.HookSocketSelect, map[string]int64{"NUM_THREADS": 6, "SHED_USER": int64(adaptBEUser)}, rocksPort},
	{policy.NameToken, syrup.HookSocketSelect, nil, rocksPort},
}

// micro runs every microbenchmark and returns its metrics by name.
func micro() (map[string]float64, error) {
	out := map[string]float64{}

	// Engine: schedule one pooled callback and fire it, in a chain.
	eng := sim.New(1)
	var left int
	var cb sim.Callback
	cb = func(any, uint64) {
		if left--; left > 0 {
			eng.CallAfter(1, cb, nil, 0)
		}
	}
	out["sim.call_fire_ns"] = medianNS(func(n int) {
		left = n
		eng.CallAfter(1, cb, nil, 0)
		eng.Run()
	})

	// One run of each loaded policy on a GET header.
	for _, mp := range microPolicies {
		host, app, err := syrup.NewHostApp(syrup.HostConfig{NumCPUs: 6, NICQueues: 6}, 1, 1000, mp.port)
		if err != nil {
			return nil, err
		}
		for i := 0; i < 6; i++ {
			app.NewUDPSocket(mp.port, fmt.Sprintf("w%d", i))
		}
		dep, err := app.DeployBuiltin(mp.name, mp.hook, mp.defines)
		if err != nil {
			return nil, fmt.Errorf("micro: deploy %s: %w", mp.name, err)
		}
		pkt := nic.NewPacket()
		pkt.SrcIP, pkt.DstIP, pkt.SrcPort, pkt.DstPort = 0x0a000001, 0x0a00ffff, 4242, mp.port
		pkt.Payload = policy.AppendHeader(pkt.HeaderBuf(), policy.ReqGET, adaptBEUser, 12345, 7)
		ctx := &ebpf.Ctx{Packet: pkt.Bytes(), Hash: pkt.RSSHash(), Port: uint32(mp.port)}
		env := &ebpf.Env{Ktime: func() uint64 { return uint64(host.Now()) }}
		var ferr error
		out["ebpf.run_ns."+mp.name] = medianNS(func(n int) {
			for i := 0; i < n; i++ {
				v, _, err := dep.Program.Run(ctx, env)
				if err != nil {
					ferr = err
				}
				sink += uint64(v)
			}
		})
		if ferr != nil {
			return nil, fmt.Errorf("micro: run %s: %w", mp.name, ferr)
		}
	}

	// LSM Get and Scan on the store the RocksDB server preloads.
	store := rocksdb.NewStore()
	store.Preload(10_000)
	keys := make([]string, 10_000)
	for i := range keys {
		keys[i] = rocksdb.Key(i)
	}
	out["rocksdb.get_ns"] = medianNS(func(n int) {
		for i := 0; i < n; i++ {
			if _, ok := store.Get(keys[(i*7919)%len(keys)]); ok {
				sink++
			}
		}
	})
	out["rocksdb.scan_ns"] = medianNS(func(n int) {
		for i := 0; i < n; i++ {
			sink += uint64(len(store.Scan(keys[(i*7919)%len(keys)], 100)))
		}
	})

	// Maglev lookup over the fleet's table.
	names := make([]string, fleetHosts)
	for i := range names {
		names[i] = cluster.MemberName(i)
	}
	table, err := cluster.NewTable(names, cluster.DefaultTableSize, 1)
	if err != nil {
		return nil, err
	}
	out["cluster.maglev_lookup_ns"] = medianNS(func(n int) {
		h := uint32(2166136261)
		for i := 0; i < n; i++ {
			h = h*16777619 ^ uint32(i)
			sink += uint64(table.Lookup(h))
		}
	})
	return out, nil
}
