package obs

// Protocol is the pre-bound instrument set for the protocol core (the
// adaptive scheme's FSM). Binding happens once at factory-instrument
// time; the core then increments plain pointers on its hot paths. A nil
// *Protocol — or a Protocol zero value — is fully disabled: every
// instrument is nil (no-op) and Journal is nil.
//
// Metric names and label conventions are documented in README.md
// ("Observability") and DESIGN.md §8.
type Protocol struct {
	// GrantsLocal/Update/Search split successful acquisitions by path
	// (adca_grants_total{path=...}; the paper's ξ1/ξ2/ξ3 numerators).
	GrantsLocal, GrantsUpdate, GrantsSearch *Counter
	// Denies counts requests the protocol denied outright
	// (adca_denies_total: no free channel anywhere in the region).
	Denies *Counter
	// BorrowAttempts counts borrowing-update permission rounds and
	// BorrowRejected the ones that ended rejected; BorrowSearches counts
	// fallbacks to the search round.
	BorrowAttempts, BorrowRejected, BorrowSearches *Counter
	// ModeToBorrowing / ModeToLocal count the NFC-driven hysteresis
	// transitions (adca_mode_transitions_total{from,to}).
	ModeToBorrowing, ModeToLocal *Counter
	// DeferQueueDepth is the current total DeferQ_i depth across cells;
	// DeferredTotal counts every deferral decision.
	DeferQueueDepth *Gauge
	DeferredTotal   *Counter
	// QuiesceStalls counts requests parked in the `waiting > 0`
	// handshake-quiescence phase (the paper's wait-UNTIL stall).
	QuiesceStalls *Counter
	// BadReleases counts Release calls for channels the cell did not
	// hold (adca_bad_releases_total).
	BadReleases *Counter
	// BadMessages counts received messages dropped as malformed: sender
	// not a neighbor, channel or Use set outside the spectrum
	// (adca_bad_messages_total).
	BadMessages *Counter
	// Journal receives the structured event stream (nil: disabled).
	Journal *Journal
}

// NewProtocol binds the protocol instrument set against r and j. Either
// may be nil; when both are nil the result is nil (fully disabled).
func NewProtocol(r *Registry, j *Journal) *Protocol {
	if r == nil && j == nil {
		return nil
	}
	p := &Protocol{Journal: j}
	if r == nil {
		return p
	}
	grants := r.CounterVec("adca_grants_total",
		"Successful channel acquisitions by path (local/update/search; the paper's xi1/xi2/xi3).",
		"path")
	p.GrantsLocal = grants.With("local")
	p.GrantsUpdate = grants.With("update")
	p.GrantsSearch = grants.With("search")
	p.Denies = r.Counter("adca_denies_total",
		"Requests denied by the protocol (no free channel in the interference region).")
	p.BorrowAttempts = r.Counter("adca_borrow_attempts_total",
		"Borrowing-update permission rounds started (mode 2).")
	p.BorrowRejected = r.Counter("adca_borrow_rejected_total",
		"Borrowing-update rounds that ended rejected and were retried.")
	p.BorrowSearches = r.Counter("adca_borrow_searches_total",
		"Borrowing-search rounds started (mode 3).")
	trans := r.CounterVec("adca_mode_transitions_total",
		"NFC-predictor-driven mode transitions across the theta_l/theta_h hysteresis band.",
		"from", "to")
	p.ModeToBorrowing = trans.With("local", "borrowing")
	p.ModeToLocal = trans.With("borrowing", "local")
	p.DeferQueueDepth = r.Gauge("adca_defer_queue_depth",
		"Current total DeferQ depth across all cells.")
	p.DeferredTotal = r.Counter("adca_deferred_total",
		"Requests deferred behind an older timestamp (DeferQ appends).")
	p.QuiesceStalls = r.Counter("adca_quiesce_stalls_total",
		"Requests stalled waiting for search-handshake quiescence (waiting > 0).")
	p.BadReleases = r.Counter("adca_bad_releases_total",
		"Release calls for channels the cell did not hold (rejected, state untouched).")
	p.BadMessages = r.Counter("adca_bad_messages_total",
		"Received messages dropped as malformed (non-neighbor sender, channel or Use set outside the spectrum).")
	return p
}
