// Package livenet names the in-process form of the wall-clock runtime:
// a netrun.Node that hosts every cell and listens nowhere. Everything
// it does — goroutine per station, fault model, deadline watchdog,
// committed-outcome checker — is documented on netrun.Node and
// netrun.Config.
package livenet

import (
	"repro/internal/alloc"
	"repro/internal/chanset"
	"repro/internal/hexgrid"
	"repro/internal/netrun"
	"repro/internal/transport"
)

// Options configure a live network; Cells stays nil.
type Options = netrun.Config

// Result is one completed request.
type Result = netrun.Result

// Network is a running live network.
type Network struct{ *netrun.Node }

// New wires the live network and starts its goroutines. Callers must
// Stop it. It panics on options that do not validate.
func New(grid *hexgrid.Grid, assign *chanset.Assignment, factory alloc.Factory, opts Options) *Network {
	n, err := netrun.NewNode(grid, assign, factory, "", opts)
	if err != nil {
		panic(err)
	}
	return &Network{n}
}

// Stop terminates the station goroutines.
func (n *Network) Stop() { n.Close() }

// Messages returns transport traffic so far, measured at the top of the
// stack (fault-injection and reliability counters included).
func (n *Network) Messages() transport.Stats { return n.Stats() }
