package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"repro/internal/chanset"
	"repro/internal/driver"
	"repro/internal/hexgrid"
	"repro/internal/lamport"
	"repro/internal/livenet"
	"repro/internal/message"
	"repro/internal/registry"
	"repro/internal/sim"
	"repro/internal/traffic"
)

// layerSizes are the micro-drive lengths: long enough that each figure
// repeats to a few percent, short enough that the whole pass takes
// seconds. The toy column exists so the tests can run every drive.
type layerSizes struct {
	gridSide     int // hexgrid / chanset / driver.parallel construction
	setOps       int
	engineDepth  int // pending-heap depth of light-mobile-serial: cells + held calls
	engineEvents int
	shardDepth   int // per-shard depth of steady-sharded: (cells + held calls) / 64
	shardTicks   sim.Time
	windows      int
	crossEvents  int
	randDraws    int
	coreRounds   int
	serialSide   int // driver.Sim construction: light-mobile-serial's grid
	localRounds  int
	primeSide    int
	codecMsgs    int
	netRounds    int
}

var (
	fullLayerSizes = layerSizes{
		gridSide: 200, setOps: 2_000_000, engineDepth: 43_200, engineEvents: 1_000_000,
		shardDepth: 14_000, shardTicks: 4000, windows: 20_000, crossEvents: 1_000_000,
		randDraws: 5_000_000, coreRounds: 20_000, serialSide: 120, localRounds: 200_000,
		primeSide: 100, codecMsgs: 2_000_000, netRounds: 5000,
	}
	toyLayerSizes = layerSizes{
		gridSide: 24, setOps: 20_000, engineDepth: 2000, engineEvents: 20_000,
		shardDepth: 200, shardTicks: 400, windows: 500, crossEvents: 20_000,
		randDraws: 50_000, coreRounds: 300, serialSide: 12, localRounds: 2000,
		primeSide: 12, codecMsgs: 20_000, netRounds: 200,
	}
)

// layerPass micro-drives each module's exported functions from outside
// and returns one value per workload-independent per-layer metric.
func layerPass(toy bool) (map[string]float64, error) {
	sz := fullLayerSizes
	if toy {
		sz = toyLayerSizes
	}
	out := map[string]float64{}
	for _, drive := range []func(layerSizes, map[string]float64) error{
		driveGrid, driveSetOps, driveEngine, driveShards, driveRand, driveCoreLayer,
		driveDriver, drivePrime, driveCodec, driveNet,
	} {
		if err := drive(sz, out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// thrice runs f three times and returns the median result, which keeps
// one descheduling from landing in the report.
func thrice(f func() (float64, error)) (float64, error) {
	var vs []float64
	for i := 0; i < 3; i++ {
		v, err := f()
		if err != nil {
			return 0, err
		}
		vs = append(vs, v)
	}
	return median(vs), nil
}

func nsPer(d time.Duration, n int) float64 { return float64(d.Nanoseconds()) / float64(n) }

// driveGrid: hexgrid.New and chanset.Assign per cell.
func driveGrid(sz layerSizes, out map[string]float64) error {
	var grid *hexgrid.Grid
	v, err := thrice(func() (float64, error) {
		t0 := time.Now()
		g, err := hexgrid.New(hexgrid.Config{Shape: hexgrid.Rect, Width: sz.gridSide, Height: sz.gridSide, ReuseDistance: desReuse, Wrap: true})
		grid = g
		return nsPer(time.Since(t0), sz.gridSide*sz.gridSide), err
	})
	if err != nil {
		return err
	}
	out["hexgrid.new_ns_per_cell"] = v
	v, err = thrice(func() (float64, error) {
		t0 := time.Now()
		_, err := chanset.Assign(grid, desChannels)
		return nsPer(time.Since(t0), grid.NumCells()), err
	})
	out["chanset.assign_ns_per_cell"] = v
	return err
}

// setSink keeps the set-op loop's results alive.
var setSink int

// driveSetOps: mean of the five set operations the protocol core leans
// on, over 70-channel sets shaped like a cell's (10 members each).
func driveSetOps(sz layerSizes, out map[string]float64) error {
	a, b := chanset.NewSet(desChannels), chanset.NewSet(desChannels)
	for c := 0; c < desChannels; c += 7 {
		a.Add(chanset.Channel(c))
		b.Add(chanset.Channel(c + 3))
	}
	scratch := chanset.NewSet(desChannels)
	v, _ := thrice(func() (float64, error) {
		n := sz.setOps / 5
		t0 := time.Now()
		for i := 0; i < n; i++ {
			scratch.UnionWith(a)
			scratch.SubtractWith(b)
			if scratch.Intersects(b) {
				setSink++
			}
			setSink += int(scratch.First())
			for c := a.First(); c.Valid(); c = a.Next(c) {
				setSink++
			}
		}
		return nsPer(time.Since(t0), 5*n), nil
	})
	out["chanset.setop_ns"] = v
	return nil
}

// gapTable is a fixed cycle of exponential gaps (mean: one call hold),
// so the kernel drives spend no time in the random generator.
func gapTable() []sim.Time {
	r := sim.NewRand(7)
	gaps := make([]sim.Time, 4096)
	for i := range gaps {
		gaps[i] = r.ExpTicks(desMeanHold) + 1
	}
	return gaps
}

// driveEngine: the hold model on sim.Engine — a heap kept at the depth
// light-mobile-serial runs at, every executed event scheduling its
// successor through AtOrigin with a fresh capturing closure, as the
// driver and the generator do.
func driveEngine(sz layerSizes, out map[string]float64) error {
	gaps := gapTable()
	var allocsPer float64
	v, err := thrice(func() (float64, error) {
		e := sim.NewEngine()
		if err := e.Reserve(sz.engineDepth + 64); err != nil {
			return 0, err
		}
		next := 0
		var step func(origin int32)
		step = func(origin int32) {
			next++
			e.AfterOrigin(gaps[next&4095], origin, func() { step(origin) })
		}
		// Highest origin first: the engine grows its per-origin counters
		// to exactly origin+1, so ascending order would copy them
		// engineDepth times.
		for i := sz.engineDepth - 1; i >= 0; i-- {
			step(int32(i))
		}
		allocs0 := readMetric("/gc/heap/allocs:objects")
		t0 := time.Now()
		var done uint64
		for until := sim.Time(1000); done < uint64(sz.engineEvents); until += 1000 {
			done += e.Run(until)
		}
		d := time.Since(t0)
		allocsPer = (readMetric("/gc/heap/allocs:objects") - allocs0) / float64(done)
		return float64(d.Nanoseconds()) / float64(done), nil
	})
	out["sim.engine.push_pop_ns"] = v
	out["sim.engine.allocs_per_event"] = allocsPer
	return err
}

// driveShards: the sharded kernel's four unit costs. push_pop is the
// hold model at steady-sharded's per-shard depth on 64 shards, one
// worker, fat windows; window is the barrier on 16 shards x 2 workers
// with one event per window; cross is an event that hops to the next
// shard every window (Cross + flush + pop).
func driveShards(sz layerSizes, out map[string]float64) error {
	gaps := gapTable()
	var allocsPer float64
	v, err := thrice(func() (float64, error) {
		const shards = 64
		k := sim.NewShards(shards, desLatency, shards)
		for s := 0; s < shards; s++ {
			if err := k.Reserve(s, sz.shardDepth+64); err != nil {
				return 0, err
			}
		}
		next := 0
		var step func(s int)
		step = func(s int) {
			next++
			k.After(s, gaps[next&4095], int32(s), func() { step(s) })
		}
		for s := 0; s < shards; s++ {
			for i := 0; i < sz.shardDepth; i++ {
				step(s)
			}
		}
		allocs0 := readMetric("/gc/heap/allocs:objects")
		t0 := time.Now()
		done := k.Run(1, sz.shardTicks)
		d := time.Since(t0)
		if done == 0 {
			return 0, fmt.Errorf("shards drive executed no events")
		}
		allocsPer = (readMetric("/gc/heap/allocs:objects") - allocs0) / float64(done)
		return float64(d.Nanoseconds()) / float64(done), nil
	})
	if err != nil {
		return err
	}
	out["sim.shards.push_pop_ns"] = v
	out["sim.shards.allocs_per_event"] = allocsPer

	v, _ = thrice(func() (float64, error) {
		k := sim.NewShards(16, desLatency, 16)
		var tick func()
		tick = func() { k.After(0, desLatency, 0, tick) }
		k.At(0, 0, 0, tick)
		t0 := time.Now()
		k.Run(2, sim.Time(sz.windows)*desLatency)
		return float64(time.Since(t0).Nanoseconds()) / float64(k.Windows()), nil
	})
	out["sim.shards.window_ns"] = v

	v, _ = thrice(func() (float64, error) {
		const shards, inFlight = 16, 4096
		k := sim.NewShards(shards, desLatency, shards)
		var hop func(s int)
		hop = func(s int) {
			dst := (s + 1) % shards
			k.Cross(s, dst, k.Now(s)+desLatency, int32(s), func() { hop(dst) })
		}
		for i := 0; i < inFlight; i++ {
			s := i % shards
			k.At(s, 0, int32(s), func() { hop(s) })
		}
		t0 := time.Now()
		done := k.Run(1, sim.Time(sz.crossEvents/inFlight)*desLatency)
		return float64(time.Since(t0).Nanoseconds()) / float64(done), nil
	})
	out["sim.shards.cross_ns"] = v
	return nil
}

var randSink sim.Time

func driveRand(sz layerSizes, out map[string]float64) error {
	r := sim.NewRand(11)
	v, _ := thrice(func() (float64, error) {
		t0 := time.Now()
		for i := 0; i < sz.randDraws; i++ {
			randSink += r.ExpTicks(desMeanHold)
		}
		return nsPer(time.Since(t0), sz.randDraws), nil
	})
	out["sim.rand.exp_ns"] = v
	return nil
}

func driveCoreLayer(sz layerSizes, out map[string]float64) error {
	c, err := driveCore(sz.coreRounds)
	if err != nil {
		return err
	}
	for k, name := range handlerMetric {
		out[name] = c.handleNs[k]
	}
	out["core.local_grant_ns"] = c.localGrantNs
	out["core.borrow_round_ns"] = c.borrowRoundNs
	out["core.borrow_round_allocs"] = c.borrowRoundAllocs
	return nil
}

// settledHeap is the heap in use after a collection.
func settledHeap() float64 {
	runtime.GC()
	return readMetric("/memory/classes/heap/objects:bytes")
}

// driveDriver: construction cost of both drivers per cell, the sharded
// driver's GC-settled footprint per cell, and the serial driver's
// request -> grant -> release round on a cell with free primaries.
func driveDriver(sz layerSizes, out map[string]float64) error {
	grid, assign, err := gridAndPlan(sz.serialSide, sz.serialSide, desChannels, nil)
	if err != nil {
		return err
	}
	v, err := thrice(func() (float64, error) {
		factory, err := registry.Build("adaptive", grid, assign, registry.Config{Latency: desLatency})
		if err != nil {
			return 0, err
		}
		t0 := time.Now()
		d := driver.New(grid, assign, factory, driver.Options{Latency: desLatency, Seed: 1, Check: true})
		el := time.Since(t0)
		runtime.KeepAlive(d)
		return nsPer(el, grid.NumCells()), nil
	})
	if err != nil {
		return err
	}
	out["driver.sim.new_ns_per_cell"] = v

	grid, assign, err = gridAndPlan(sz.gridSide, sz.gridSide, desChannels, nil)
	if err != nil {
		return err
	}
	var bytesPer float64
	v, err = thrice(func() (float64, error) {
		factory, err := registry.Build("adaptive", grid, assign, registry.Config{Latency: desLatency})
		if err != nil {
			return 0, err
		}
		h0 := settledHeap()
		t0 := time.Now()
		d, err := driver.NewParallel(grid, assign, factory, driver.ParallelOptions{Latency: desLatency, Seed: 1, Shards: 64, Workers: 2})
		el := time.Since(t0)
		if err != nil {
			return 0, err
		}
		bytesPer = (settledHeap() - h0) / float64(grid.NumCells())
		runtime.KeepAlive(d)
		return nsPer(el, grid.NumCells()), nil
	})
	if err != nil {
		return err
	}
	out["driver.parallel.new_ns_per_cell"] = v
	out["driver.parallel.bytes_per_cell"] = bytesPer

	grid, assign, err = gridAndPlan(7, 7, desChannels, nil)
	if err != nil {
		return err
	}
	factory, err := registry.Build("adaptive", grid, assign, registry.Config{Latency: desLatency})
	if err != nil {
		return err
	}
	d := driver.New(grid, assign, factory, driver.Options{Latency: desLatency, Seed: 1})
	cell := grid.InteriorCell()
	v, err = thrice(func() (float64, error) {
		t0 := time.Now()
		for i := 0; i < sz.localRounds; i++ {
			ch := chanset.NoChannel
			d.Request(cell, func(r driver.Result) { ch = r.Ch })
			d.Drain(64)
			if !ch.Valid() {
				return 0, fmt.Errorf("driver drive: local round %d not granted", i)
			}
			d.Release(cell, ch)
			d.Drain(64)
		}
		return nsPer(time.Since(t0), sz.localRounds), nil
	})
	out["driver.sim.local_round_ns"] = v
	return err
}

// drivePrime: traffic.PrimeParallel with warm start at steady-sharded's
// base load, per cell.
func drivePrime(sz layerSizes, out map[string]float64) error {
	grid, assign, err := gridAndPlan(sz.primeSide, sz.primeSide, desChannels, nil)
	if err != nil {
		return err
	}
	v, err := thrice(func() (float64, error) {
		factory, err := registry.Build("adaptive", grid, assign, registry.Config{Latency: desLatency})
		if err != nil {
			return 0, err
		}
		d, err := driver.NewParallel(grid, assign, factory, driver.ParallelOptions{Latency: desLatency, Seed: 1, Shards: 16, Workers: 2})
		if err != nil {
			return 0, err
		}
		spec := traffic.Spec{
			Profile: traffic.Uniform{PerCell: 9 / desMeanHold}, MeanHold: desMeanHold,
			Duration: 900, Warmup: 180, Seed: 1, WarmStart: true, DrainHorizon: 100,
		}
		t0 := time.Now()
		_, err = traffic.PrimeParallel(d, spec)
		return nsPer(time.Since(t0), grid.NumCells()), err
	})
	out["traffic.prime_ns_per_cell"] = v
	return err
}

// codecMix is one message of each shape the adaptive protocol puts on
// the wire, in roughly the proportions of a borrow round: a REQUEST, a
// grant RESPONSE, a status RESPONSE carrying a Use set, a CHANGE_MODE,
// an ACQUISITION and a RELEASE.
func codecMix() []message.Message {
	use := chanset.NewSet(desChannels)
	for c := 0; c < desChannels; c += 7 {
		use.Add(chanset.Channel(c))
	}
	ts := lamport.Stamp{Time: 123456, Node: 24}
	return []message.Message{
		{Kind: message.Request, Req: message.ReqUpdate, From: 24, To: 17, Ch: 33, TS: ts},
		{Kind: message.Response, Res: message.ResGrant, From: 17, To: 24, Ch: 33, TS: ts},
		{Kind: message.Response, Res: message.ResStatus, From: 17, To: 24, Ch: chanset.NoChannel, Use: use},
		{Kind: message.ChangeMode, From: 24, To: 17, Mode: message.ModeBorrowing},
		{Kind: message.Acquisition, Acq: message.AcqNonSearch, From: 24, To: 17, Ch: 33},
		{Kind: message.Release, From: 24, To: 17, Ch: 33},
	}
}

var codecSink int

func driveCodec(sz layerSizes, out map[string]float64) error {
	mix := codecMix()
	var wire [][]byte
	var bytes int
	for _, m := range mix {
		b := message.Encode(nil, m)
		wire = append(wire, b)
		bytes += len(b)
	}
	out["message.bytes_per_msg"] = float64(bytes) / float64(len(mix))
	buf := make([]byte, 0, 256)
	v, _ := thrice(func() (float64, error) {
		t0 := time.Now()
		for i := 0; i < sz.codecMsgs; i++ {
			buf = message.Encode(buf[:0], mix[i%len(mix)])
		}
		return nsPer(time.Since(t0), sz.codecMsgs), nil
	})
	out["message.encode_ns"] = v
	v, err := thrice(func() (float64, error) {
		t0 := time.Now()
		for i := 0; i < sz.codecMsgs; i++ {
			m, n, err := message.Decode(wire[i%len(wire)])
			if err != nil {
				return 0, err
			}
			codecSink += n + int(m.Ch)
		}
		return nsPer(time.Since(t0), sz.codecMsgs), nil
	})
	out["message.decode_ns"] = v
	return err
}

// driveNet: the tcp-borrow round at a short length for the fabric's
// per-round and per-message figures, and the same round on the
// in-process live runtime, so round_p50_us - livenet.round_us is what
// the wire adds.
func driveNet(sz layerSizes, out map[string]float64) error {
	cluster, err := prepareTCP(params{rounds: sz.netRounds}, 1, nil)
	if err != nil {
		return err
	}
	res, err := cluster.run(nil)
	cluster.close()
	if err != nil {
		return err
	}
	if res.Failed > 0 || res.WireMsgs == 0 {
		return fmt.Errorf("netrun drive: %d of %d rounds failed (%s)", res.Failed, res.Attempted, res.Error)
	}
	out["netrun.msgs_per_round"] = float64(res.WireMsgs) / float64(res.Rounds)
	out["netrun.wire_bytes_per_round"] = float64(res.WireBytes) / float64(res.Rounds)
	out["netrun.ns_per_msg"] = res.RunS * 1e9 / float64(res.WireMsgs)
	out["netrun.allocs_per_msg"] = float64(res.Allocs) / float64(res.WireMsgs)

	us, err := liveRoundUs(sz.netRounds)
	out["livenet.round_us"] = us
	return err
}

// liveRoundUs is the median request -> grant latency of the tcp-borrow
// round on livenet: same grid, same exhausted cell, no sockets.
func liveRoundUs(rounds int) (float64, error) {
	grid, assign, err := gridAndPlan(7, 7, 21, nil)
	if err != nil {
		return 0, err
	}
	factory, err := registry.Build("adaptive", grid, assign, registry.Config{Latency: 10})
	if err != nil {
		return 0, err
	}
	n := livenet.New(grid, assign, factory, livenet.Options{LatencyTicks: 10, TickDuration: 20 * time.Microsecond, Seed: 1})
	defer n.Stop()
	cell := grid.InteriorCell()
	done := make(chan livenet.Result, 1)
	request := func() (livenet.Result, error) {
		n.Request(cell, func(r livenet.Result) { done <- r })
		select {
		case r := <-done:
			if !r.Granted {
				return r, fmt.Errorf("livenet drive: request denied")
			}
			return r, nil
		case <-time.After(tcpRoundTimeout):
			return livenet.Result{}, fmt.Errorf("livenet drive: request not answered within %v", tcpRoundTimeout)
		}
	}
	for i := 0; i < assign.Primary[cell].Len(); i++ {
		if _, err := request(); err != nil {
			return 0, err
		}
	}
	lat := make([]float64, 0, rounds)
	for i := 0; i < rounds; i++ {
		t0 := time.Now()
		r, err := request()
		if err != nil {
			return 0, err
		}
		lat = append(lat, float64(time.Since(t0).Nanoseconds())/1e3)
		n.Release(r.Cell, r.Ch)
	}
	sort.Float64s(lat)
	return percentile(lat, 0.5), nil
}
