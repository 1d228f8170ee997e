package transport

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chanset"
	"repro/internal/hexgrid"
	"repro/internal/message"
	"repro/internal/raceflag"
)

func TestLiveDeliversAndCounts(t *testing.T) {
	l := NewLive(0)
	var got atomic.Int64
	l.Attach(1, HandlerFunc(func(m message.Message) { got.Add(1) }))
	l.Start()
	defer l.Stop()
	for i := 0; i < 20; i++ {
		l.Send(message.Message{Kind: message.Request, From: 0, To: 1})
	}
	if !waitIdle(l, 5*time.Second) {
		t.Fatal("not idle")
	}
	if got.Load() != 20 {
		t.Fatalf("delivered %d of 20", got.Load())
	}
	st := l.Stats()
	if st.Total != 20 || st.ByKind[message.Request] != 20 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestLivePerStationSerialization(t *testing.T) {
	// Handlers of ONE station must never run concurrently.
	l := NewLive(0)
	var inside atomic.Int32
	var maxSeen atomic.Int32
	l.Attach(1, HandlerFunc(func(message.Message) {
		v := inside.Add(1)
		if v > maxSeen.Load() {
			maxSeen.Store(v)
		}
		time.Sleep(50 * time.Microsecond)
		inside.Add(-1)
	}))
	l.Start()
	defer l.Stop()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				l.Send(message.Message{Kind: message.Release, From: 0, To: 1})
			}
		}()
	}
	wg.Wait()
	if !waitIdle(l, 10*time.Second) {
		t.Fatal("not idle")
	}
	if maxSeen.Load() != 1 {
		t.Fatalf("handler concurrency observed: %d", maxSeen.Load())
	}
}

func TestLiveFIFOWithDelay(t *testing.T) {
	l := NewLive(100 * time.Microsecond)
	var mu sync.Mutex
	var order []int
	l.Attach(1, HandlerFunc(func(m message.Message) {
		mu.Lock()
		order = append(order, int(m.Ch))
		mu.Unlock()
	}))
	l.Start()
	defer l.Stop()
	for i := 0; i < 30; i++ {
		l.Send(message.Message{Kind: message.Request, From: 0, To: 1, Ch: chanset.Channel(i)})
	}
	if !waitIdle(l, 10*time.Second) {
		t.Fatal("not idle")
	}
	mu.Lock()
	defer mu.Unlock()
	for i, v := range order {
		if v != i {
			t.Fatalf("delayed link broke FIFO at %d: %v", i, order[:i+1])
		}
	}
}

func TestLiveDoRunsOnStationGoroutine(t *testing.T) {
	l := NewLive(0)
	l.Attach(2, HandlerFunc(func(message.Message) {}))
	l.Start()
	defer l.Stop()
	done := make(chan int, 1)
	l.Do(2, func() { done <- 42 })
	select {
	case v := <-done:
		if v != 42 {
			t.Fatal("wrong value")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Do never ran")
	}
}

func TestLiveMisusePanics(t *testing.T) {
	l := NewLive(0)
	l.Attach(1, HandlerFunc(func(message.Message) {}))
	l.Start()
	defer l.Stop()
	for name, fn := range map[string]func(){
		"attach-after-start": func() { l.Attach(9, HandlerFunc(func(message.Message) {})) },
		"double-start":       func() { l.Start() },
		"do-unattached":      func() { l.Do(99, func() {}) },
		"send-unattached":    func() { l.Send(message.Message{To: 99}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

// TestLiveSchedulerGoroutineCount: a Live with a positive Delay runs on
// at most two goroutines — its loop and its delay scheduler — however
// many stations it hosts and however many (from, to) pairs exchange
// traffic. Earlier designs spawned one goroutine per station and, before
// that, one pipeline goroutine per ordered pair (n·(n-1) = 4032 for
// n = 64).
func TestLiveSchedulerGoroutineCount(t *testing.T) {
	overhead := func(stations int) int {
		base := runtime.NumGoroutine()
		l := NewLive(200 * time.Microsecond)
		var got atomic.Int64
		for c := 0; c < stations; c++ {
			l.Attach(hexgrid.CellID(c), HandlerFunc(func(message.Message) { got.Add(1) }))
		}
		l.Start()
		defer l.Stop()
		// Touch every ordered pair so every would-be link exists.
		for from := 0; from < stations; from++ {
			for to := 0; to < stations; to++ {
				if from != to {
					l.Send(message.Message{Kind: message.Request, From: hexgrid.CellID(from), To: hexgrid.CellID(to)})
				}
			}
		}
		if !waitIdle(l, 30*time.Second) {
			t.Fatalf("%d stations: not idle", stations)
		}
		if want := int64(stations * (stations - 1)); got.Load() != want {
			t.Fatalf("%d stations: delivered %d of %d", stations, got.Load(), want)
		}
		return runtime.NumGoroutine() - base
	}
	for _, stations := range []int{8, 64} {
		if added := overhead(stations); added > 2 {
			t.Fatalf("%d stations with a delay added %d goroutines, want at most 2 (loop + scheduler)", stations, added)
		}
	}
}

// TestLiveStationsShareOneLoop pins the one-loop model: handlers of
// different stations never overlap, however many goroutines send to
// them, and a Do queued after a Send to the same station runs after
// that message's handler.
func TestLiveStationsShareOneLoop(t *testing.T) {
	const stations, senders, perSender = 16, 8, 50
	l := NewLive(0)
	var inside, maxSeen atomic.Int32
	handledFrom := make([]atomic.Int64, senders) // messages handled, by sender
	for c := 0; c < stations; c++ {
		l.Attach(hexgrid.CellID(c), HandlerFunc(func(m message.Message) {
			if v := inside.Add(1); v > maxSeen.Load() {
				maxSeen.Store(v)
			}
			time.Sleep(10 * time.Microsecond)
			handledFrom[m.From].Add(1)
			inside.Add(-1)
		}))
	}
	l.Start()
	defer l.Stop()
	var wg sync.WaitGroup
	var misordered atomic.Int64
	for g := 0; g < senders; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perSender; i++ {
				to := hexgrid.CellID((g + i) % stations)
				l.Send(message.Message{Kind: message.Release, From: hexgrid.CellID(g), To: to})
				// The Do follows this goroutine's (i+1)-th message, so by
				// the time it runs all i+1 have been handled.
				l.Do(to, func() {
					if handledFrom[g].Load() < int64(i+1) {
						misordered.Add(1)
					}
				})
			}
		}()
	}
	wg.Wait()
	if !waitIdle(l, 10*time.Second) {
		t.Fatal("not idle")
	}
	if maxSeen.Load() != 1 {
		t.Fatalf("handlers of different stations overlapped: %d at once", maxSeen.Load())
	}
	if n := misordered.Load(); n != 0 {
		t.Fatalf("%d Do funcs ran before the message sent ahead of them", n)
	}
	var total int64
	for g := range handledFrom {
		total += handledFrom[g].Load()
	}
	if total != senders*perSender {
		t.Fatalf("handled %d of %d messages", total, senders*perSender)
	}
}

// TestLiveFIFOAcrossManyLinks drives interleaved traffic on several
// links through the shared scheduler and checks each link's messages
// arrive in send order (the per-link FIFO contract the old per-link
// pipelines gave for free).
func TestLiveFIFOAcrossManyLinks(t *testing.T) {
	const links, perLink = 8, 200
	l := NewLive(100 * time.Microsecond)
	var mu sync.Mutex
	order := make(map[hexgrid.CellID][]int)
	l.Attach(99, HandlerFunc(func(m message.Message) {
		mu.Lock()
		order[m.From] = append(order[m.From], int(m.Ch))
		mu.Unlock()
	}))
	for s := 0; s < links; s++ {
		l.Attach(hexgrid.CellID(s), HandlerFunc(func(message.Message) {}))
	}
	l.Start()
	defer l.Stop()
	var wg sync.WaitGroup
	for s := 0; s < links; s++ {
		s := s
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perLink; i++ {
				l.Do(hexgrid.CellID(s), func() {
					l.Send(message.Message{Kind: message.Request, From: hexgrid.CellID(s), To: 99, Ch: chanset.Channel(i)})
				})
			}
		}()
	}
	wg.Wait()
	if !waitIdle(l, 30*time.Second) {
		t.Fatal("not idle")
	}
	mu.Lock()
	defer mu.Unlock()
	for s := 0; s < links; s++ {
		seq := order[hexgrid.CellID(s)]
		if len(seq) != perLink {
			t.Fatalf("link %d: delivered %d of %d", s, len(seq), perLink)
		}
		for i, v := range seq {
			if v != i {
				t.Fatalf("link %d reordered at %d: %v", s, i, seq[:i+1])
			}
		}
	}
}

// TestLiveDelayedSendsOverlap asserts delayed messages pipeline: k
// back-to-back sends on one link all arrive ~Delay after their send,
// not k·Delay apart (the old per-link goroutine slept Delay per
// message, capping each link at 1/Delay msgs/sec).
func TestLiveDelayedSendsOverlap(t *testing.T) {
	const delay, k = 20 * time.Millisecond, 20
	l := NewLive(delay)
	var got atomic.Int64
	l.Attach(1, HandlerFunc(func(message.Message) { got.Add(1) }))
	l.Start()
	defer l.Stop()
	t0 := time.Now()
	for i := 0; i < k; i++ {
		l.Send(message.Message{Kind: message.Request, From: 0, To: 1, Ch: chanset.Channel(i)})
	}
	if !waitIdle(l, 30*time.Second) {
		t.Fatal("not idle")
	}
	elapsed := time.Since(t0)
	if got.Load() != k {
		t.Fatalf("delivered %d of %d", got.Load(), k)
	}
	// Serialized delivery would need k*delay = 400ms; pipelined delivery
	// needs ~delay. Allow generous scheduler slack.
	if elapsed > k*delay/2 {
		t.Fatalf("delayed sends serialized: %d messages took %v (delay %v)", k, elapsed, delay)
	}
}

// TestLiveBusyWhileHandlerRuns: a message counts as in flight until its
// handler returns, so Live is not Idle while a handler runs, and is once
// the last one has returned.
func TestLiveBusyWhileHandlerRuns(t *testing.T) {
	l := NewLive(0)
	entered, release := make(chan struct{}), make(chan struct{})
	l.Attach(1, HandlerFunc(func(message.Message) { close(entered); <-release }))
	l.Start()
	defer l.Stop()
	l.Send(message.Message{Kind: message.Request, From: 0, To: 1})
	<-entered
	if l.Idle() {
		t.Fatal("Idle while a handler was still running")
	}
	close(release)
	if !waitIdle(l, 5*time.Second) {
		t.Fatal("never Idle after the handler returned")
	}
}

func TestLiveStopIdempotent(t *testing.T) {
	l := NewLive(0)
	l.Attach(1, HandlerFunc(func(message.Message) {}))
	l.Start()
	l.Stop()
	l.Stop() // second stop is a no-op
}

func TestLiveSendAfterStopIsDropped(t *testing.T) {
	// Regression: Send with delay > 0 after Stop used to write to a
	// closed link channel and panic. It must drop cleanly instead.
	l := NewLive(50 * time.Microsecond)
	l.Attach(1, HandlerFunc(func(message.Message) {}))
	l.Start()
	l.Send(message.Message{Kind: message.Request, From: 0, To: 1})
	waitIdle(l, 5*time.Second)
	l.Stop()
	for i := 0; i < 10; i++ {
		l.Send(message.Message{Kind: message.Request, From: 0, To: 1}) // must not panic
		l.Do(1, func() { t.Error("closure ran after Stop") })
	}
	if l.DroppedOnStop() == 0 {
		t.Fatal("post-stop sends were not counted as dropped")
	}
}

func TestLiveSendRacingStop(t *testing.T) {
	// Regression (run under -race): senders hammering a delayed link
	// while Stop tears it down must neither panic nor race.
	for trial := 0; trial < 20; trial++ {
		l := NewLive(20 * time.Microsecond)
		l.Attach(1, HandlerFunc(func(message.Message) {}))
		l.Attach(2, HandlerFunc(func(message.Message) {}))
		l.Start()
		var wg sync.WaitGroup
		stop := make(chan struct{})
		for g := 0; g < 4; g++ {
			g := g
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					l.Send(message.Message{Kind: message.Release, From: 0, To: hexgrid.CellID(1 + g%2)})
				}
			}()
		}
		time.Sleep(200 * time.Microsecond)
		l.Stop() // races with the senders by design
		close(stop)
		wg.Wait()
	}
}

// TestLiveMutualFloodCompletes: two stations whose handlers send to
// each other must not deadlock however far one runs ahead. Station 1
// sends a burst to station 2 from a Do, and station 2 echoes every
// message back. With bounded blocking queues a full queue blocked its
// sender forever (on one loop, the sender is the queue's own consumer);
// the unbounded queue finishes the exchange in milliseconds.
func TestLiveMutualFloodCompletes(t *testing.T) {
	const burst = 5000
	l := NewLive(0)
	var echoes atomic.Int64
	l.Attach(1, HandlerFunc(func(message.Message) { echoes.Add(1) }))
	l.Attach(2, HandlerFunc(func(m message.Message) {
		l.Send(message.Message{Kind: message.Release, From: 2, To: 1, Ch: m.Ch})
	}))
	l.Start()
	defer l.Stop()
	l.Do(1, func() {
		for i := 0; i < burst; i++ {
			l.Send(message.Message{Kind: message.Release, From: 1, To: 2, Ch: chanset.Channel(i)})
		}
	})
	deadline := time.Now().Add(5 * time.Second)
	for echoes.Load() != burst {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d echoes came back within 5s: the stations deadlocked", echoes.Load(), burst)
		}
		time.Sleep(time.Millisecond)
	}
	if !waitIdle(l, 5*time.Second) {
		t.Fatal("not idle after the flood")
	}
}

// TestLiveSendAllocatesNothing: a message through a warm loop — Send,
// the loop's wake-up and Handle — allocates nothing (the queue holds
// typed items, not one closure per message, and recycles its slices).
func TestLiveSendAllocatesNothing(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation budgets are not meaningful under the race detector")
	}
	l := NewLive(0)
	handled := make(chan struct{})
	l.Attach(1, HandlerFunc(func(message.Message) { handled <- struct{}{} }))
	l.Start()
	defer l.Stop()
	m := message.Message{Kind: message.Release, From: 0, To: 1, Ch: 3}
	round := func() {
		l.Send(m)
		<-handled
	}
	for i := 0; i < 10; i++ {
		round() // warm both of the queue's slices
	}
	if allocs := testing.AllocsPerRun(1000, round); allocs != 0 {
		t.Fatalf("Send -> Handle through a warm loop allocates %.2f objects, want 0", allocs)
	}
}
