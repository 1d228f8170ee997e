// Package fixed implements static (fixed) channel allocation: every cell
// may only ever use its statically assigned primary channels. Zero
// messages, zero acquisition delay, and heavy blocking under hot spots —
// the baseline the paper's introduction argues against.
package fixed

import (
	"fmt"

	"repro/internal/alloc"
	"repro/internal/chanset"
	"repro/internal/hexgrid"
	"repro/internal/message"
)

// Factory builds fixed allocators.
type Factory struct {
	assign *chanset.Assignment
}

// NewFactory returns a Factory over the given primary plan.
func NewFactory(assign *chanset.Assignment) *Factory {
	return &Factory{assign: assign}
}

// Name implements alloc.Factory.
func (f *Factory) Name() string { return "fixed" }

// New implements alloc.Factory.
func (f *Factory) New(cell hexgrid.CellID) alloc.Allocator {
	return &Fixed{pr: f.assign.Primary[cell], cell: cell}
}

// Fixed is one cell's static allocator.
type Fixed struct {
	cell     hexgrid.CellID
	env      alloc.Env
	pr       chanset.Set
	use      chanset.Set
	serial   alloc.Serial
	counters alloc.Counters
}

// Start implements alloc.Allocator.
func (x *Fixed) Start(env alloc.Env) {
	x.env = env
	x.use = chanset.NewSet(int(x.pr.Last()) + 1)
	x.serial.SetStart(x.start)
}

func (x *Fixed) start(id alloc.RequestID) {
	x.env.Began(id)
	free := chanset.Subtract(x.pr, x.use)
	if ch := free.First(); ch.Valid() {
		x.use.Add(ch)
		x.counters.GrantsLocal++
		x.env.Granted(id, ch)
	} else {
		x.counters.Drops++
		x.env.Denied(id)
	}
	x.serial.Finish()
}

// Request implements alloc.Allocator.
func (x *Fixed) Request(id alloc.RequestID) { x.serial.Submit(id) }

// Release implements alloc.Allocator.
func (x *Fixed) Release(ch chanset.Channel) error {
	if !x.use.Contains(ch) {
		x.counters.BadReleases++
		return fmt.Errorf("fixed: cell %d releasing unheld channel %d", x.cell, ch)
	}
	x.use.Remove(ch)
	return nil
}

// Handle implements alloc.Allocator; the static scheme has no messages.
func (x *Fixed) Handle(m message.Message) {
	panic(fmt.Sprintf("fixed: unexpected message %v", m))
}

// InUse implements alloc.Allocator.
func (x *Fixed) InUse() chanset.Set { return x.use }

// Mode implements alloc.Allocator (always local).
func (x *Fixed) Mode() int { return 0 }

// ProtocolCounters implements alloc.CounterProvider.
func (x *Fixed) ProtocolCounters() alloc.Counters { return x.counters }
