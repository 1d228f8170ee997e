package driver_test

import (
	"bytes"
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/alloc"
	"repro/internal/chanset"
	"repro/internal/driver"
	"repro/internal/hexgrid"
	"repro/internal/message"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/registry"
	"repro/internal/trace"
	"repro/internal/traffic"
)

// TestSharingIsTheWholeDifference: New and NewParallel at one shard run
// the same driver, and differ only in what New makes the cells share —
// the request-id counter and the delay accumulators (and the jitter
// stream, off here). So a mobile borrowing scenario executes the same
// events on both and leaves the same integers, the same channel sets
// mid-run and the same trace up to the request ids; only the floating-
// point means may differ, in their last bits. This is the test that goes,
// together with own and stride, when New adopts the per-cell forms
// (ROADMAP item 2).
func TestSharingIsTheWholeDifference(t *testing.T) {
	g := hexgrid.MustNew(hexgrid.Config{Shape: hexgrid.Rect, Width: 12, Height: 12, ReuseDistance: 2, Wrap: true})
	assign := chanset.MustAssign(g, 70)
	f, err := registry.Build("adaptive", g, assign, registry.Config{Latency: 10})
	if err != nil {
		t.Fatal(err)
	}
	spec := traffic.Spec{
		Profile: traffic.Uniform{PerCell: 9.5 / 3000}, MeanHold: 3000, HandoffRate: 0.00067,
		Duration: 5000, Warmup: 1000, Seed: 11, WarmStart: true,
	}
	opts := driver.Options{Latency: 10, Seed: 11, Check: true, TraceSize: 1 << 17, Shards: 1, Workers: 1}
	type outcome struct {
		executed uint64
		stats    driver.Stats
		traffic  traffic.Stats
		midRun   []string
		trace    []trace.Event
	}
	run := func(d *driver.Sim) outcome {
		t.Helper()
		primed, err := traffic.PrimeParallel(d, spec)
		if err != nil {
			t.Fatal(err)
		}
		d.Run(2500) // calls held, messages in flight
		var o outcome
		for c := 0; c < g.NumCells(); c++ {
			o.midRun = append(o.midRun, d.Allocator(hexgrid.CellID(c)).InUse().String())
		}
		if o.traffic, err = primed.Finish(); err != nil {
			t.Fatal(err)
		}
		o.executed, o.stats, o.trace = d.Executed(), d.Stats(), d.Trace()
		for i := range o.trace {
			o.trace[i].Info = 0 // request ids: numbered per grid, or per cell
		}
		sort.SliceStable(o.trace, func(a, b int) bool {
			if o.trace[a].At != o.trace[b].At {
				return o.trace[a].At < o.trace[b].At
			}
			return o.trace[a].Cell < o.trace[b].Cell
		})
		return o
	}
	serial := run(driver.New(g, assign, f, opts))
	p, err := driver.NewParallel(g, assign, f, opts)
	if err != nil {
		t.Fatal(err)
	}
	one := run(p)

	if c := serial.stats.Counters; c.GrantsUpdate+c.GrantsSearch == 0 || serial.traffic.HandoffAttempts == 0 || serial.stats.Denies == 0 {
		t.Fatalf("the scenario does not borrow, move and block: %+v, %+v", c, serial.traffic)
	}
	if one.executed != serial.executed {
		t.Errorf("executed %d events at one shard, %d serially", one.executed, serial.executed)
	}
	if !reflect.DeepEqual(one.traffic, serial.traffic) {
		t.Errorf("traffic stats differ:\n%+v\n%+v", one.traffic, serial.traffic)
	}
	if !reflect.DeepEqual(one.midRun, serial.midRun) {
		t.Error("channel sets differ mid-run")
	}
	if len(serial.trace) < 1000 || !reflect.DeepEqual(one.trace, serial.trace) {
		t.Errorf("traces differ beyond order and request ids (%d and %d events)", len(one.trace), len(serial.trace))
	}
	// Stats: every integer equal; the three means to the last few bits.
	a, b := one.stats, serial.stats
	for _, w := range []struct {
		name string
		a, b metrics.Welford
	}{{"AcqDelay", a.AcqDelay, b.AcqDelay}, {"TotalDelay", a.TotalDelay, b.TotalDelay}, {"QueueDelay", a.QueueDelay, b.QueueDelay}} {
		if w.a.N() != w.b.N() || w.a.Min() != w.b.Min() || w.a.Max() != w.b.Max() || w.a.N() == 0 {
			t.Errorf("%s: n/min/max %d/%v/%v at one shard, %d/%v/%v serially", w.name, w.a.N(), w.a.Min(), w.a.Max(), w.b.N(), w.b.Min(), w.b.Max())
		}
		if math.Abs(w.a.Mean()-w.b.Mean()) > 1e-12*math.Abs(w.b.Mean()) {
			t.Errorf("%s: mean %v at one shard, %v serially", w.name, w.a.Mean(), w.b.Mean())
		}
	}
	a.AcqDelay, a.TotalDelay, a.QueueDelay = metrics.Welford{}, metrics.Welford{}, metrics.Welford{}
	b.AcqDelay, b.TotalDelay, b.QueueDelay = metrics.Welford{}, metrics.Welford{}, metrics.Welford{}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("Stats differ beyond the accumulators:\n%+v\n%+v", a, b)
	}
}

// cochannel is an allocator that grants channel 0 to every request: two
// neighbours that both ask falsify Theorem 1.
type cochannel struct {
	env alloc.Env
	use chanset.Set
}

func (c *cochannel) Start(env alloc.Env)           { c.env, c.use = env, chanset.NewSet(70) }
func (c *cochannel) Request(id alloc.RequestID)    { c.use.Add(0); c.env.Granted(id, 0) }
func (c *cochannel) Release(chanset.Channel) error { return nil }
func (c *cochannel) Handle(message.Message)        {}
func (c *cochannel) InUse() chanset.Set            { return c.use }
func (c *cochannel) Mode() int                     { return 0 }

type cochannelFactory struct{}

func (cochannelFactory) Name() string                       { return "cochannel" }
func (cochannelFactory) New(hexgrid.CellID) alloc.Allocator { return &cochannel{} }

// TestCheckPanicsInsideTheGrantingEvent: with Check, one shard verifies
// Theorem 1 on every grant — under either constructor — so a co-channel
// grant panics in the event that made it, not at a later barrier.
func TestCheckPanicsInsideTheGrantingEvent(t *testing.T) {
	g := hexgrid.MustNew(hexgrid.Config{Shape: hexgrid.Rect, Width: 7, Height: 7, ReuseDistance: 2, Wrap: true})
	assign := chanset.MustAssign(g, 70)
	cell := g.InteriorCell()
	neighbor := g.Interference(cell)[0]
	opts := driver.Options{Latency: 10, Check: true, Shards: 1, Workers: 1}
	p, err := driver.NewParallel(g, assign, cochannelFactory{}, opts)
	if err != nil {
		t.Fatal(err)
	}
	for name, d := range map[string]*driver.Sim{"New": driver.New(g, assign, cochannelFactory{}, opts), "NewParallel": p} {
		completed := 0
		d.At(cell, 5, func() { d.Request(cell, func(driver.Result) { completed++ }) })
		d.At(neighbor, 7, func() { d.Request(neighbor, func(driver.Result) { completed++ }) })
		d.At(neighbor, 8, func() { t.Errorf("%s: the run went on past the co-channel grant", name) })
		func() {
			defer func() {
				r := recover()
				if err, ok := r.(error); !ok || !strings.Contains(err.Error(), "interference") {
					t.Errorf("%s: recovered %v, want the checker's interference error", name, r)
				}
			}()
			d.Run(100)
		}()
		if completed != 1 || d.Now(neighbor) != 7 {
			t.Errorf("%s: %d requests completed, clock %d; want the first grant to pass and the second to panic at t=7 before its callback", name, completed, d.Now(neighbor))
		}
	}
}

// TestJournalNeedsOneShard: the second rule that keys on the shard count.
// A journal is accepted at one shard, under either constructor, and is a
// descriptive error above it; a registry is bound at any.
func TestJournalNeedsOneShard(t *testing.T) {
	g := hexgrid.MustNew(hexgrid.Config{Shape: hexgrid.Rect, Width: 7, Height: 7, ReuseDistance: 2, Wrap: true})
	assign := chanset.MustAssign(g, 70)
	var buf bytes.Buffer
	journal := obs.NewJournal(&buf)
	_, err := driver.NewParallel(g, assign, cochannelFactory{}, driver.Options{Shards: 2, Journal: journal, Obs: obs.New()})
	if err == nil || !strings.Contains(err.Error(), "a journal needs one shard, got 2") {
		t.Errorf("a journal at two shards: error %v, want the one-shard rule", err)
	}
	if _, err := driver.NewParallel(g, assign, cochannelFactory{}, driver.Options{Shards: 2, Obs: obs.New()}); err != nil {
		t.Errorf("a registry at two shards: %v", err)
	}
	p, err := driver.NewParallel(g, assign, cochannelFactory{}, driver.Options{Shards: 1, Journal: journal})
	if err != nil {
		t.Fatal(err)
	}
	p.Request(3, nil)
	driver.New(g, assign, cochannelFactory{}, driver.Options{Journal: journal}).Request(3, nil)
	if err := journal.Flush(); err != nil {
		t.Fatal(err)
	}
	// Request ids: cell 3's first is 3+1 numbered per cell, 1 numbered
	// per grid.
	want := `{"t":0,"type":"request","cell":3,"req":4}
{"t":0,"type":"result","cell":3,"req":4,"granted":1,"ch":0,"ticks":0}
{"t":0,"type":"request","cell":3,"req":1}
{"t":0,"type":"result","cell":3,"req":1,"granted":1,"ch":0,"ticks":0}
`
	if got := buf.String(); got != want {
		t.Errorf("journal:\n%swant:\n%s", got, want)
	}
}
