package alloc

import "repro/internal/obs"

// RegisterObs binds the protocol families into r as collectors over
// tally, which is read at collection time and so must be safe to call
// from the scrape goroutine: the DES driver hands it the tally it last
// published, a netrun node one it reads on its loop. Several tally funcs
// under one registry sum. Nil-safe.
func RegisterObs(r *obs.Registry, tally func() Tally) {
	if r == nil {
		return
	}
	reg := func(name, help string, get func(Tally) uint64, labels ...string) {
		r.CounterFunc(name, help, func() float64 { return float64(get(tally())) }, labels...)
	}
	const grants = "Successful channel acquisitions by path (local/update/search; the paper's xi1/xi2/xi3)."
	reg("adca_grants_total", grants, func(t Tally) uint64 { return t.GrantsLocal }, "path", "local")
	reg("adca_grants_total", grants, func(t Tally) uint64 { return t.GrantsUpdate }, "path", "update")
	reg("adca_grants_total", grants, func(t Tally) uint64 { return t.GrantsSearch }, "path", "search")
	reg("adca_denies_total", "Requests denied by the protocol (no free channel in the interference region).",
		func(t Tally) uint64 { return t.Drops })
	reg("adca_borrow_attempts_total", "Borrowing-update permission rounds started (mode 2).",
		func(t Tally) uint64 { return t.UpdateAttempts })
	reg("adca_borrow_rejected_total", "Borrowing-update rounds that ended rejected and were retried.",
		func(t Tally) uint64 { return t.Rejected })
	reg("adca_borrow_searches_total", "Borrowing-search rounds started (mode 3).",
		func(t Tally) uint64 { return t.Searches })
	const trans = "NFC-predictor-driven mode transitions across the theta_l/theta_h hysteresis band."
	reg("adca_mode_transitions_total", trans, func(t Tally) uint64 { return t.ToBorrowing }, "from", "local", "to", "borrowing")
	reg("adca_mode_transitions_total", trans, func(t Tally) uint64 { return t.ToLocal }, "from", "borrowing", "to", "local")
	r.GaugeFunc("adca_defer_queue_depth", "Current total DeferQ depth across all cells.",
		func() float64 { return float64(tally().DeferDepth) })
	reg("adca_deferred_total", "Requests deferred behind an older timestamp (DeferQ appends).",
		func(t Tally) uint64 { return t.Deferred })
	reg("adca_bad_releases_total", "Release calls for channels the cell did not hold (rejected, state untouched).",
		func(t Tally) uint64 { return t.BadReleases })
	reg("adca_bad_messages_total", "Received messages dropped as malformed (non-neighbor sender, channel or Use set outside the spectrum).",
		func(t Tally) uint64 { return t.BadMessages })
}
