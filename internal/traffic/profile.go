// Package traffic generates call workloads over the DES driver: Poisson
// call arrivals with exponential holding times, spatial load profiles
// (uniform, hot spot, ramp, moving hot spot), and mobility-driven
// handoffs. It reports the telephony metrics the paper's motivation is
// stated in: new-call blocking and handoff drop probabilities.
package traffic

import (
	"fmt"
	"math"

	"repro/internal/hexgrid"
	"repro/internal/sim"
)

// Profile gives the per-cell call arrival rate (calls per tick) as a
// function of time. MaxRate bounds Rate over all times for the thinning
// sampler.
type Profile interface {
	Rate(cell hexgrid.CellID, now sim.Time) float64
	MaxRate(cell hexgrid.CellID) float64
}

// Uniform is a stationary, spatially uniform profile.
type Uniform struct {
	// PerCell is the arrival rate of every cell (calls per tick).
	PerCell float64
}

// Rate implements Profile.
func (u Uniform) Rate(hexgrid.CellID, sim.Time) float64 { return u.PerCell }

// MaxRate implements Profile.
func (u Uniform) MaxRate(hexgrid.CellID) float64 { return u.PerCell }

// Hotspot overlays an elevated rate on a set of hot cells.
type Hotspot struct {
	// Base is the background per-cell rate.
	Base float64
	// Hot is the rate of hot cells.
	Hot float64
	// Cells are the hot cells.
	Cells map[hexgrid.CellID]bool
	// Start and End bound the hot interval; zero End means "forever".
	Start, End sim.Time
}

// NewHotspot marks the cells within radius of center on grid as hot.
func NewHotspot(grid *hexgrid.Grid, center hexgrid.CellID, radius int, base, hot float64) Hotspot {
	cells := map[hexgrid.CellID]bool{center: true}
	if radius > 0 {
		for _, j := range grid.Interference(center) {
			if hexgrid.Distance(grid.Pos(center), grid.Pos(j)) <= radius {
				cells[j] = true
			}
		}
	}
	return Hotspot{Base: base, Hot: hot, Cells: cells}
}

// Rate implements Profile.
func (h Hotspot) Rate(cell hexgrid.CellID, now sim.Time) float64 {
	if !h.Cells[cell] {
		return h.Base
	}
	if now < h.Start || (h.End > 0 && now >= h.End) {
		return h.Base
	}
	return h.Hot
}

// MaxRate implements Profile.
func (h Hotspot) MaxRate(cell hexgrid.CellID) float64 {
	if h.Cells[cell] && h.Hot > h.Base {
		return h.Hot
	}
	return h.Base
}

// Ramp linearly interpolates every cell's rate from From to To between
// Start and End (constant outside).
type Ramp struct {
	From, To   float64
	Start, End sim.Time
}

// Rate implements Profile.
func (r Ramp) Rate(_ hexgrid.CellID, now sim.Time) float64 {
	switch {
	case now <= r.Start:
		return r.From
	case now >= r.End:
		return r.To
	default:
		f := float64(now-r.Start) / float64(r.End-r.Start)
		return r.From + f*(r.To-r.From)
	}
}

// MaxRate implements Profile.
func (r Ramp) MaxRate(hexgrid.CellID) float64 {
	if r.To > r.From {
		return r.To
	}
	return r.From
}

// MovingHotspot sweeps a hot cell across a path of cells, Dwell ticks
// per stop, with Base elsewhere — the "temporary hot spots" of the
// paper's abstract.
type MovingHotspot struct {
	Base, Hot float64
	Path      []hexgrid.CellID
	Dwell     sim.Time
}

// hotCell returns the currently hot cell.
func (m MovingHotspot) hotCell(now sim.Time) hexgrid.CellID {
	if len(m.Path) == 0 || m.Dwell <= 0 {
		return hexgrid.None
	}
	idx := int(now/m.Dwell) % len(m.Path)
	return m.Path[idx]
}

// Rate implements Profile.
func (m MovingHotspot) Rate(cell hexgrid.CellID, now sim.Time) float64 {
	if m.hotCell(now) == cell {
		return m.Hot
	}
	return m.Base
}

// MaxRate implements Profile.
func (m MovingHotspot) MaxRate(cell hexgrid.CellID) float64 {
	for _, p := range m.Path {
		if p == cell && m.Hot > m.Base {
			return m.Hot
		}
	}
	return m.Base
}

// Episode is one timed hotspot for Schedule: the covered cells run at
// Rate between Start (inclusive) and End (exclusive).
type Episode struct {
	Cells      map[hexgrid.CellID]bool
	Rate       float64
	Start, End sim.Time
}

// Schedule overlays timed hotspot episodes on a base profile — the
// building block of the mobile scenario library (commute waves, flash
// crowds, stadium events). A cell's rate is the maximum of the base
// profile's rate and every active episode covering the cell; max (not
// sum) composition keeps MaxRate exact for the thinning sampler.
type Schedule struct {
	Base     Profile
	Episodes []Episode
}

// Rate implements Profile.
func (s Schedule) Rate(cell hexgrid.CellID, now sim.Time) float64 {
	r := s.Base.Rate(cell, now)
	for _, ep := range s.Episodes {
		if ep.Cells[cell] && now >= ep.Start && now < ep.End && ep.Rate > r {
			r = ep.Rate
		}
	}
	return r
}

// MaxRate implements Profile.
func (s Schedule) MaxRate(cell hexgrid.CellID) float64 {
	r := s.Base.MaxRate(cell)
	for _, ep := range s.Episodes {
		if ep.Cells[cell] && ep.Rate > r {
			r = ep.Rate
		}
	}
	return r
}

// Diurnal modulates a base profile sinusoidally — the day/night cycle:
// rate(t) = base(t) × (1 + Swing·sin(2π·t/Period)). Swing is the peak
// fractional deviation in [0, 1]; Period is the cycle length in ticks.
type Diurnal struct {
	Base   Profile
	Swing  float64
	Period sim.Time
}

// Rate implements Profile.
func (d Diurnal) Rate(cell hexgrid.CellID, now sim.Time) float64 {
	r := d.Base.Rate(cell, now)
	if d.Swing <= 0 || d.Period <= 0 {
		return r
	}
	return r * (1 + d.Swing*math.Sin(2*math.Pi*float64(now)/float64(d.Period)))
}

// MaxRate implements Profile.
func (d Diurnal) MaxRate(cell hexgrid.CellID) float64 {
	r := d.Base.MaxRate(cell)
	if d.Swing > 0 {
		r *= 1 + d.Swing
	}
	return r
}

// HotspotSpec declares a stationary hot zone for ProfileSpec.
type HotspotSpec struct {
	Center hexgrid.CellID
	Radius int
	// Rate is the hot cells' arrival rate (calls per tick).
	Rate float64
}

// PhaseSpec declares one timed hotspot episode for ProfileSpec.
type PhaseSpec struct {
	Center     hexgrid.CellID
	Radius     int
	Rate       float64
	Start, End sim.Time
}

// DiurnalSpec declares sinusoidal day/night modulation for ProfileSpec.
type DiurnalSpec struct {
	Swing  float64
	Period sim.Time
}

// ProfileSpec is a declarative profile description: a uniform base rate,
// optionally a stationary hotspot, timed hotspot phases, and a diurnal
// cycle. It is the shared vocabulary of the adca facade's Workload and
// the scenario loader, so both construct identical profiles through
// BuildProfile.
type ProfileSpec struct {
	BaseRate float64
	Hotspot  *HotspotSpec
	Phases   []PhaseSpec
	Diurnal  *DiurnalSpec
}

// BuildProfile validates spec against the grid and assembles the
// profile: base (or hotspot), wrapped in a Schedule when phases are
// present, wrapped in a Diurnal when a cycle is declared.
func BuildProfile(g *hexgrid.Grid, spec ProfileSpec) (Profile, error) {
	if spec.BaseRate < 0 {
		return nil, fmt.Errorf("traffic: profile base rate must be >= 0, got %v", spec.BaseRate)
	}
	checkZone := func(kind string, center hexgrid.CellID, radius int, rate float64) error {
		if int(center) < 0 || int(center) >= g.NumCells() {
			return fmt.Errorf("traffic: %s center cell %d outside grid of %d cells", kind, center, g.NumCells())
		}
		if radius < 0 {
			return fmt.Errorf("traffic: %s radius must be >= 0, got %d", kind, radius)
		}
		if rate < 0 {
			return fmt.Errorf("traffic: %s rate must be >= 0, got %v", kind, rate)
		}
		return nil
	}
	var p Profile = Uniform{PerCell: spec.BaseRate}
	if h := spec.Hotspot; h != nil {
		if err := checkZone("hotspot", h.Center, h.Radius, h.Rate); err != nil {
			return nil, err
		}
		p = NewHotspot(g, h.Center, h.Radius, spec.BaseRate, h.Rate)
	}
	if len(spec.Phases) > 0 {
		eps := make([]Episode, 0, len(spec.Phases))
		for i, ph := range spec.Phases {
			if err := checkZone(fmt.Sprintf("phase %d", i), ph.Center, ph.Radius, ph.Rate); err != nil {
				return nil, err
			}
			if ph.Start < 0 || ph.End <= ph.Start {
				return nil, fmt.Errorf("traffic: phase %d window [%d, %d) is empty or negative", i, ph.Start, ph.End)
			}
			eps = append(eps, Episode{
				Cells: NewHotspot(g, ph.Center, ph.Radius, 0, 0).Cells,
				Rate:  ph.Rate,
				Start: ph.Start,
				End:   ph.End,
			})
		}
		p = Schedule{Base: p, Episodes: eps}
	}
	if d := spec.Diurnal; d != nil {
		if d.Swing < 0 || d.Swing > 1 {
			return nil, fmt.Errorf("traffic: diurnal swing must be in [0, 1], got %v", d.Swing)
		}
		if d.Period <= 0 {
			return nil, fmt.Errorf("traffic: diurnal period must be > 0 ticks, got %d", d.Period)
		}
		p = Diurnal{Base: p, Swing: d.Swing, Period: d.Period}
	}
	return p, nil
}
