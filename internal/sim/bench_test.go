package sim

import "testing"

func BenchmarkEngineScheduleRun(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine()
	for i := 0; i < b.N; i++ {
		e.After(1, func() {})
		if i%1024 == 1023 {
			e.Run(e.Now() + 2)
		}
	}
	e.Run(e.Now() + 2)
}

func BenchmarkEngineCascade(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine()
	n := 0
	var loop func()
	loop = func() {
		if n < b.N {
			n++
			e.After(1, loop)
		}
	}
	e.At(0, loop)
	e.Run(Time(b.N) + 10)
}

func BenchmarkRandUint64(b *testing.B) {
	b.ReportAllocs()
	r := NewRand(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink ^= r.Uint64()
	}
	_ = sink
}

func BenchmarkRandExpTicks(b *testing.B) {
	b.ReportAllocs()
	r := NewRand(1)
	var sink Time
	for i := 0; i < b.N; i++ {
		sink += r.ExpTicks(1000)
	}
	_ = sink
}

func BenchmarkRandIntn(b *testing.B) {
	b.ReportAllocs()
	r := NewRand(1)
	var sink int
	for i := 0; i < b.N; i++ {
		sink += r.Intn(49)
	}
	_ = sink
}

// BenchmarkQueueHold is the hold model on the bare queue: a heap kept
// 40 000 records deep — a steady-sharded shard's — where every pop
// pushes a successor a random gap later.
func BenchmarkQueueHold(b *testing.B) {
	const depth = 40_000
	r := NewRand(7)
	gaps := make([]Time, 4096)
	for i := range gaps {
		gaps[i] = r.ExpTicks(3000) + 1
	}
	q := queue{pool: new(pagePool), near: nearSpan}
	for i := 0; i < depth; i++ {
		q.push(Event{At: gaps[i&4095], key: uint64(i)})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := q.pop()
		ev.At += gaps[i&4095]
		ev.key = uint64(depth + i)
		q.push(ev)
	}
}
