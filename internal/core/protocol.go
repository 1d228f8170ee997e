package core

import (
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/alloc"
	"repro/internal/chanset"
	"repro/internal/hexgrid"
	"repro/internal/lamport"
	"repro/internal/message"
	"repro/internal/obs"
)

// The paper's Request_Channel (Figure 2) is blocking pseudo-code with
// four "wait UNTIL" points. Those become the phases of this FSM:
//
//	phaseQuiesce — local mode, waiting_i > 0: wait for the outstanding
//	               search ACQUISITIONs before allocating locally.
//	phaseStatus  — local mode, no free primary: CHANGE_MODE(1) sent,
//	               waiting for RESPONSE(status) from every IN_i member.
//	phaseGrants  — mode 2: REQUEST(update, r) sent, collecting
//	               grant/reject from every IN_i member.
//	phaseSearch  — mode 3: REQUEST(search) sent, collecting Use sets.
type phase uint8

const (
	phaseQuiesce phase = iota
	phaseStatus
	phaseGrants
	phaseSearch
)

// request is the in-flight channel request (at most one per station;
// additional arrivals queue in the Serial). The set of neighbors the
// active phase is still awaiting lives on the Adaptive (the slab's await
// mask and awaitN): only one phase collects responses at a time.
type request struct {
	id alloc.RequestID
	// ts is assigned once and kept across retries, exactly as the
	// paper's recursive Request_Channel(ts_i) reuses its timestamp —
	// this is what makes old requests win deferral races and
	// guarantees progress (Theorem 2).
	ts       lamport.Stamp
	ch       chanset.Channel // candidate channel in phaseGrants
	ph       phase
	rejected bool
}

// acquisition paths, for the ξ1/ξ2/ξ3 counters.
const (
	pathLocal = iota
	pathUpdate
	pathSearch
)

// startRequest is the Serial's start hook: a fresh request begins. The
// FSM state lives in a.reqBuf — one request is in flight per station at
// a time, so the struct is recycled instead of allocated per request.
func (a *Adaptive) startRequest(id alloc.RequestID) {
	a.env.Began(id)
	r := &a.reqBuf
	*r = request{id: id, ts: a.clock.Tick(), ch: chanset.NoChannel}
	a.req = r
	a.dispatch()
}

// dispatch is Request_Channel: it routes the active request according to
// the station's current mode. It is re-entered after phaseStatus
// completes and after every failed borrowing-update attempt (the paper's
// recursive calls).
func (a *Adaptive) dispatch() {
	r := a.req
	if a.mode == ModeLocal {
		if a.waiting > 0 {
			// Wait until every in-flight search we answered has
			// finished; otherwise we could grab a primary that a
			// searcher is concurrently selecting.
			a.pending = true
			r.ph = phaseQuiesce
			a.stallEvent()
			return
		}
		a.pending = false
		if ch := a.freePrimary().First(); ch.Valid() {
			a.finishGrant(ch, pathLocal)
			return
		}
		// No free primary: check_mode() must move us to borrowing
		// (with zero free primaries the prediction is <= 0 < θ_l), and
		// the CHANGE_MODE(1) broadcast collects every neighbor's Use
		// set via RESPONSE(status).
		a.checkMode()
		if a.mode == ModeLocal {
			// Defensive: unreachable for validated params, but a
			// stuck-local station would deadlock the request.
			a.forceBorrow()
		}
		r.ph = phaseStatus
		a.awaitAll()
		if a.awaitN == 0 {
			a.dispatchBorrow()
		}
		return
	}
	a.dispatchBorrow()
}

// forceBorrow performs the local→borrowing transition unconditionally.
func (a *Adaptive) forceBorrow() {
	a.mode = ModeBorrow
	a.counters.ModeChanges++
	a.modeEvent(ModeLocal, ModeBorrow, 0)
	alloc.Broadcast(a.env, message.Message{Kind: message.ChangeMode, From: a.cell, Mode: message.ModeBorrowing})
}

// stallEvent instruments one quiescence stall (a request parked in
// phaseQuiesce behind waiting_i > 0).
func (a *Adaptive) stallEvent() {
	a.factory.obs.QuiesceStalls.Inc()
	if a.factory.obs.Journal != nil {
		a.factory.obs.Journal.Emit(int64(a.env.Now()), "stall", int(a.cell),
			obs.FI("waiting", int64(a.waiting)), obs.FI("req", int64(a.req.id)))
	}
}

// dispatchBorrow is the borrowing branch of Request_Channel.
func (a *Adaptive) dispatchBorrow() {
	r := a.req
	// A primary may have freed while we were collecting responses.
	if ch := a.freePrimary().First(); ch.Valid() {
		// Safety refinement over the literal Figure 2 (DESIGN.md D8):
		// the paper guards direct primary acquisition with the
		// waiting/pending quiescence rule only in local mode, but the
		// same race exists here — an in-flight search we already
		// answered may be about to select this primary. Quiesce first.
		if a.waiting > 0 {
			a.pending = true
			r.ph = phaseQuiesce
			a.stallEvent()
			return
		}
		a.finishGrant(ch, pathLocal)
		return
	}
	j := a.best()
	a.rounds++
	var ch chanset.Channel = chanset.NoChannel
	if j != hexgrid.None {
		ch = a.pickBorrow(j)
	}
	if j != hexgrid.None && int(a.rounds) <= a.factory.params.Alpha && ch.Valid() {
		// Borrowing update attempt (mode 2): optimistically pick ch
		// and ask the whole interference region for permission.
		a.mode = ModeBorrowUpdate
		a.counters.UpdateAttempts++
		a.factory.obs.BorrowAttempts.Inc()
		if a.factory.obs.Journal != nil {
			a.factory.obs.Journal.Emit(int64(a.env.Now()), "borrow", int(a.cell),
				obs.FI("lender", int64(j)), obs.FI("ch", int64(ch)),
				obs.FI("round", int64(a.rounds)))
		}
		r.ph = phaseGrants
		r.ch = ch
		a.awaitAll()
		a.blk.grantors = a.blk.grantors[:0] // best() warmed the station
		r.rejected = false
		alloc.Broadcast(a.env, message.Message{
			Kind: message.Request, From: a.cell, Req: message.ReqUpdate, Ch: ch, TS: r.ts,
		})
		if a.awaitN == 0 {
			a.completeGrants()
		}
		return
	}
	// Borrowing search (mode 3): collect every neighbor's Use set;
	// timestamp order sequentializes concurrent requests, so a free
	// channel is found whenever one exists.
	a.mode = ModeBorrowSearch
	a.factory.obs.BorrowSearches.Inc()
	if a.factory.obs.Journal != nil {
		a.factory.obs.Journal.Emit(int64(a.env.Now()), "search", int(a.cell),
			obs.FI("round", int64(a.rounds)))
	}
	r.ph = phaseSearch
	a.awaitAll()
	alloc.Broadcast(a.env, message.Message{
		Kind: message.Request, From: a.cell, Req: message.ReqSearch, Ch: chanset.NoChannel, TS: r.ts,
	})
	if a.awaitN == 0 {
		a.completeSearch()
	}
}

// completeGrants runs when every grant/reject for the update attempt has
// arrived.
func (a *Adaptive) completeGrants() {
	r := a.req
	if !r.rejected {
		a.finishGrant(r.ch, pathUpdate)
		return
	}
	// Failed: release the permissions we did get, then retry (the
	// granters added ch to their interference sets when granting).
	a.factory.obs.BorrowRejected.Inc()
	if a.factory.obs.Journal != nil {
		a.factory.obs.Journal.Emit(int64(a.env.Now()), "borrow_rejected", int(a.cell),
			obs.FI("ch", int64(r.ch)), obs.FI("round", int64(a.rounds)))
	}
	a.mode = ModeBorrow
	for _, g := range a.blk.grantors {
		a.env.Send(message.Message{
			Kind: message.Release, From: a.cell, To: g, Ch: r.ch, TS: r.ts,
		})
	}
	a.dispatch()
}

// completeSearch runs when every Use set for the search has arrived.
func (a *Adaptive) completeSearch() {
	r := a.req
	free := a.freeAnywhere()
	if ch := free.First(); ch.Valid() {
		a.finishGrant(ch, pathSearch)
		return
	}
	// No channel anywhere in the interference region: the call drops.
	// acquire(NoChannel) still broadcasts ACQUISITION(search) so
	// neighbors decrement their waiting counters (DESIGN.md D6).
	a.acquire(chanset.NoChannel)
	a.counters.Drops++
	a.factory.obs.Denies.Inc()
	if a.factory.obs.Journal != nil {
		a.factory.obs.Journal.Emit(int64(a.env.Now()), "deny", int(a.cell),
			obs.FI("req", int64(r.id)))
	}
	id := r.id
	a.req = nil
	a.env.Denied(id)
	a.serial.Finish()
}

// finishGrant acquires ch, reports success and releases the station for
// the next queued request.
func (a *Adaptive) finishGrant(ch chanset.Channel, path int) {
	r := a.req
	a.acquire(ch)
	var pathName string
	switch path {
	case pathLocal:
		a.counters.GrantsLocal++
		a.factory.obs.GrantsLocal.Inc()
		pathName = "local"
	case pathUpdate:
		a.counters.GrantsUpdate++
		a.factory.obs.GrantsUpdate.Inc()
		pathName = "update"
	case pathSearch:
		a.counters.GrantsSearch++
		a.factory.obs.GrantsSearch.Inc()
		pathName = "search"
	}
	if a.factory.obs.Journal != nil {
		a.factory.obs.Journal.Emit(int64(a.env.Now()), "grant", int(a.cell),
			obs.FS("path", pathName), obs.FI("ch", int64(ch)),
			obs.FI("req", int64(r.id)))
	}
	id := r.id
	a.req = nil
	a.env.Granted(id, ch)
	a.serial.Finish()
}

// acquire is Figure 3: record the channel, announce the acquisition
// according to the mode it was acquired in, drain the defer queue, and
// re-check the mode if still local.
func (a *Adaptive) acquire(ch chanset.Channel) {
	a.add(setUse, ch)
	a.rounds = 0
	switch a.mode {
	case ModeLocal, ModeBorrow:
		// Only neighbors currently in borrowing mode track our usage.
		a.sendUpdateS(message.Message{
			Kind: message.Acquisition, Acq: message.AcqNonSearch, Ch: ch,
		})
	case ModeBorrowUpdate:
		// The grant round already informed the whole neighborhood.
		a.mode = ModeBorrow
	case ModeBorrowSearch:
		alloc.Broadcast(a.env, message.Message{
			Kind: message.Acquisition, From: a.cell, Acq: message.AcqSearch, Ch: ch,
		})
		a.mode = ModeBorrow
	}
	// Drain DeferQ_i in place: answer the n entries queued now, by index,
	// then close the gap. Nothing appends meanwhile on the DES — env.Send
	// only schedules future deliveries, so no handler runs mid-drain —
	// and an entry that did would sit past n and move to the front.
	n := 0
	if a.blk != nil {
		n = len(a.blk.deferQ)
	}
	if n > 0 {
		a.factory.obs.DeferQueueDepth.Add(-float64(n))
	}
	for i := 0; i < n; i++ {
		d := a.blk.deferQ[i]
		from := a.neighbors()[d.k]
		if d.search {
			a.waiting++
			a.env.Send(message.Message{
				Kind: message.Response, Res: message.ResSearch,
				From: a.cell, To: from, TS: d.ts(), Use: a.view(setUse),
			})
			continue
		}
		if a.has(setUse, d.ch) {
			a.env.Send(message.Message{
				Kind: message.Response, Res: message.ResReject,
				From: a.cell, To: from, Ch: d.ch, TS: d.ts(),
			})
		} else {
			a.env.Send(message.Message{
				Kind: message.Response, Res: message.ResGrant,
				From: a.cell, To: from, Ch: d.ch, TS: d.ts(),
			})
			a.grantRecord(int(d.k), d.ch)
			a.addU(int(d.k), d.ch)
		}
	}
	if n > 0 {
		a.blk.deferQ = slices.Delete(a.blk.deferQ, 0, n)
	}
	if a.mode == ModeLocal {
		a.checkMode()
	}
}

// Release is Figure 9 (Deallocate): the channel returns to the pool and
// the release is announced — to the borrowing neighbors only when local,
// to the whole interference region otherwise. Releasing a channel the
// cell does not hold is rejected with an error (and counted) rather
// than panicking: on the live runtime a panic here would take down the
// whole process over one misbehaving caller.
func (a *Adaptive) Release(ch chanset.Channel) error {
	if !a.inSpectrum(ch) || !a.has(setUse, ch) {
		a.counters.BadReleases++
		a.factory.obs.BadReleases.Inc()
		if a.factory.obs.Journal != nil {
			a.factory.obs.Journal.Emit(int64(a.env.Now()), "bad_release", int(a.cell),
				obs.FI("ch", int64(ch)))
		}
		return fmt.Errorf("core: cell %d releasing channel %d it does not hold", a.cell, ch)
	}
	// Repacking extension: keep the freed primary in service by moving
	// a borrowed call onto it and releasing the borrowed channel back
	// to the region instead (strictly better for neighbors: a primary
	// only we can use stays busy, a sharable channel frees up).
	if a.factory.params.Repack && a.primary().Contains(ch) {
		borrowed := chanset.Subtract(a.view(setUse), a.primary())
		if b := borrowed.First(); b.Valid() {
			a.remove(setUse, b)
			a.env.Moved(b, ch) // ch stays in use, now carrying b's call
			alloc.Broadcast(a.env, message.Message{Kind: message.Release, From: a.cell, Ch: b})
			a.checkMode()
			return nil
		}
	}
	a.remove(setUse, ch)
	if a.mode == ModeLocal && a.primary().Contains(ch) {
		// A primary release matters only to borrowing neighbors.
		a.sendUpdateS(message.Message{Kind: message.Release, Ch: ch})
	} else {
		// Borrowed (non-primary) channels were acquired through a round
		// that informed the whole interference region; release them the
		// same way even from local mode, or their owners' grant records
		// would go stale forever (DESIGN.md D10).
		alloc.Broadcast(a.env, message.Message{Kind: message.Release, From: a.cell, Ch: ch})
	}
	a.checkMode()
	return nil
}

// Handle implements alloc.Allocator: the five receive procedures of the
// paper (Figures 4, 5, 7, 8 and the response handling implicit in
// Figure 2's wait conditions).
//
// A message is checked before it touches any state: the sender must be
// an interference neighbor, the channel in the spectrum (or NoChannel)
// and the Use snapshot no wider than the spectrum and silent outside it.
// The wire codec accepts any int32 and any width, and with flat slabs an
// out-of-range index would land in another neighbor's words, so anything
// else is dropped and counted.
func (a *Adaptive) Handle(m message.Message) {
	k := a.nbrIdx(m.From)
	if k < 0 || (m.Ch != chanset.NoChannel && !a.inSpectrum(m.Ch)) || !a.fitsSpectrum(m.Use) {
		a.badMessage(m)
		return
	}
	// Lamport receive rule. Without it two causally ordered requests
	// could carry inverted timestamps and break the deferral argument
	// of Theorems 1 and 2.
	a.clock.Witness(m.TS)
	switch m.Kind {
	case message.Request:
		a.onRequest(m, k)
	case message.Response:
		a.onResponse(m, k)
	case message.ChangeMode:
		a.onChangeMode(m, k)
	case message.Acquisition:
		a.onAcquisition(m, k)
	case message.Release:
		a.onRelease(m, k)
	}
}

// inSpectrum reports whether ch is a channel of the spectrum.
func (a *Adaptive) inSpectrum(ch chanset.Channel) bool {
	return uint32(ch) < uint32(a.factory.assign.NumChannels)
}

// fitsSpectrum reports whether a received Use set has at most the
// spectrum's width and no member outside it.
func (a *Adaptive) fitsSpectrum(use chanset.Set) bool {
	words := use.Words()
	if len(words) > int(a.w) {
		return false
	}
	spectrum := a.factory.assign.Spectrum.Words()
	for i, w := range words {
		if w&^spectrum[i] != 0 {
			return false
		}
	}
	return true
}

// badMessage drops a message Handle refused, leaving all state — the
// Lamport clock included — untouched.
func (a *Adaptive) badMessage(m message.Message) {
	a.counters.BadMessages++
	a.factory.obs.BadMessages.Inc()
	if a.factory.obs.Journal != nil {
		a.factory.obs.Journal.Emit(int64(a.env.Now()), "bad_message", int(a.cell),
			obs.FS("kind", m.Kind.String()), obs.FI("from", int64(m.From)),
			obs.FI("ch", int64(m.Ch)), obs.FI("use_words", int64(len(m.Use.Words()))))
	}
}

// onRequest is Figure 4.
func (a *Adaptive) onRequest(m message.Message, k int) {
	if m.Req == message.ReqUpdate {
		switch a.mode {
		case ModeLocal, ModeBorrow:
			if a.has(setUse, m.Ch) {
				a.sendReject(m)
			} else {
				a.sendGrant(m, k)
			}
		case ModeBorrowUpdate:
			// Reject if the channel is busy here or our own pending
			// request is older (lower timestamp wins).
			if a.has(setUse, m.Ch) || a.req.ts.Less(m.TS) {
				a.sendReject(m)
			} else {
				a.sendGrant(m, k)
			}
		case ModeBorrowSearch:
			// Safety refinement over the literal Figure 4 (DESIGN.md
			// D7): a channel we are using must be rejected outright
			// even while searching.
			switch {
			case a.has(setUse, m.Ch):
				a.sendReject(m)
			case a.req.ts.Less(m.TS):
				a.deferPush(deferred{ch: m.Ch, tsTime: m.TS.Time, tsNode: m.TS.Node, k: int32(k)})
			default:
				a.sendGrant(m, k)
			}
		}
		return
	}
	// Search request.
	switch a.mode {
	case ModeLocal, ModeBorrow:
		// While a pending request waits for quiescence (waiting = 0),
		// newer searches are deferred — answering them would keep
		// incrementing waiting and starve the pending request. This is
		// the paper's local-mode rule; it must also cover the
		// borrowing-mode quiescence of DESIGN.md D8, or a hot region
		// livelocks (observed at 1.1 Erlang/primary).
		if a.pending && a.req != nil && a.req.ts.Less(m.TS) {
			a.deferPush(deferred{search: true, tsTime: m.TS.Time, tsNode: m.TS.Node, k: int32(k)})
		} else {
			a.respondSearch(m)
		}
	case ModeBorrowUpdate, ModeBorrowSearch:
		if a.req.ts.Less(m.TS) {
			a.deferPush(deferred{search: true, tsTime: m.TS.Time, tsNode: m.TS.Node, k: int32(k)})
		} else {
			a.respondSearch(m)
		}
	}
}

// deferPush appends one entry to DeferQ_i and instruments the deferral
// (total deferrals plus the live aggregate queue-depth gauge; the drain
// in acquire decrements the gauge).
func (a *Adaptive) deferPush(d deferred) {
	b := a.block()
	b.deferQ = append(b.deferQ, d)
	a.counters.Deferred++
	a.factory.obs.DeferredTotal.Inc()
	a.factory.obs.DeferQueueDepth.Add(1)
	if a.factory.obs.Journal != nil {
		kind := "update"
		if d.search {
			kind = "search"
		}
		a.factory.obs.Journal.Emit(int64(a.env.Now()), "defer", int(a.cell),
			obs.FS("req_kind", kind), obs.FI("from", int64(a.neighbors()[d.k])),
			obs.FI("depth", int64(len(b.deferQ))))
	}
}

func (a *Adaptive) sendReject(m message.Message) {
	a.env.Send(message.Message{
		Kind: message.Response, Res: message.ResReject,
		From: a.cell, To: m.From, Ch: m.Ch, TS: m.TS,
	})
}

// sendGrant grants channel m.Ch to m.From and records the channel as
// interfered (the requester is about to use it; a RELEASE undoes this if
// the requester's round fails).
func (a *Adaptive) sendGrant(m message.Message, k int) {
	a.env.Send(message.Message{
		Kind: message.Response, Res: message.ResGrant,
		From: a.cell, To: m.From, Ch: m.Ch, TS: m.TS,
	})
	a.grantRecord(k, m.Ch)
	a.addU(k, m.Ch)
	a.checkMode()
}

func (a *Adaptive) respondSearch(m message.Message) {
	a.waiting++
	a.env.Send(message.Message{
		Kind: message.Response, Res: message.ResSearch,
		From: a.cell, To: m.From, TS: m.TS, Use: a.view(setUse),
	})
}

// onResponse feeds the active request FSM.
func (a *Adaptive) onResponse(m message.Message, k int) {
	r := a.req
	switch m.Res {
	case message.ResGrant, message.ResReject:
		if r == nil || r.ph != phaseGrants || !m.TS.Equal(r.ts) || !a.inMask(maskAwait, k) {
			// Stale grant for an attempt we already resolved: undo the
			// permission the responder recorded. (Unreachable while
			// every attempt collects all responses; kept as armor.)
			if m.Res == message.ResGrant {
				a.env.Send(message.Message{
					Kind: message.Release, From: a.cell, To: m.From, Ch: m.Ch,
				})
			}
			return
		}
		a.awaitClear(k)
		if m.Res == message.ResGrant {
			a.blk.grantors = append(a.blk.grantors, m.From)
		} else {
			r.rejected = true
		}
		if a.awaitN == 0 {
			a.completeGrants()
		}
	case message.ResSearch:
		a.replaceU(k, m.Use)
		if r != nil && r.ph == phaseSearch && m.TS.Equal(r.ts) && a.inMask(maskAwait, k) {
			a.awaitClear(k)
			if a.awaitN == 0 {
				a.completeSearch()
			}
		}
	case message.ResStatus:
		a.replaceU(k, m.Use)
		if r != nil && r.ph == phaseStatus && a.inMask(maskAwait, k) {
			a.awaitClear(k)
			if a.awaitN == 0 {
				a.dispatch()
			}
		}
	}
}

// onChangeMode is Figure 5.
func (a *Adaptive) onChangeMode(m message.Message, k int) {
	word, bit := a.maskBit(maskUpdateS, k)
	if m.Mode != message.ModeLocal {
		*word |= bit
	} else {
		*word &^= bit
	}
	a.env.Send(message.Message{
		Kind: message.Response, Res: message.ResStatus,
		From: a.cell, To: m.From, Use: a.view(setUse),
	})
}

// onAcquisition is Figure 7.
func (a *Adaptive) onAcquisition(m message.Message, k int) {
	if m.Ch.Valid() {
		a.grantResolve(k, m.Ch)
		a.addU(k, m.Ch)
		a.checkMode()
	}
	if m.Acq == message.AcqSearch {
		if a.waiting > 0 {
			a.waiting--
		}
		if a.waiting == 0 && a.pending && a.req != nil && a.req.ph == phaseQuiesce {
			a.pending = false
			a.dispatch()
		}
	}
}

// onRelease is Figure 8.
func (a *Adaptive) onRelease(m message.Message, k int) {
	a.grantResolve(k, m.Ch)
	a.removeU(k, m.Ch)
	a.checkMode()
}

// lenderScratch is the storage of one best() call: the candidate list
// and one free-primaries set per candidate, drawn from Factory.scratch.
type lenderScratch struct {
	cands []LenderCandidate
	words []uint64
}

// best selects the lender: it gathers every eligible candidate — the
// non-borrowing neighbors that own a free (in our view) primary channel
// we could borrow (DESIGN.md D1) — and delegates the ranking to the
// configured LenderStrategy (policy.go). The default strategy is the
// paper's Figure 10 Best(): fewest borrowing neighbors in common with
// us, ties broken on cell id. Candidate storage comes from the factory's
// pool and goes back before best returns, so the borrow path stays
// allocation-free and no cell carries the scratch. The first scan warms
// the station.
func (a *Adaptive) best() hexgrid.CellID {
	b := a.block()
	freeSet := a.freeAnywhere()
	if freeSet.Empty() {
		return hexgrid.None
	}
	free := freeSet.Words()
	nbrs, w := a.neighbors(), int(a.w)
	n := len(nbrs)
	if b.masks == nil && n <= 64 {
		a.buildNbrMasks()
	}
	sc := a.factory.scratch.Get().(*lenderScratch)
	defer a.factory.scratch.Put(sc)
	if cap(sc.cands) < n {
		sc.cands = make([]LenderCandidate, 0, n)
	}
	if len(sc.words) < n*w {
		sc.words = make([]uint64, n*w)
	}
	cands := sc.cands[:0]
	updateS := a.mask(maskUpdateS)
	for ji, j := range nbrs {
		if a.inMask(maskUpdateS, ji) {
			continue // NotBorrowing = IN_i − UpdateS_i
		}
		off := len(cands) * w
		set := sc.words[off : off+w : off+w]
		primary := a.factory.assign.Primary[j].Words()
		count, lowest := 0, chanset.NoChannel
		for wi := range set {
			x := free[wi] & primary[wi]
			set[wi] = x
			if x != 0 && count == 0 {
				lowest = chanset.Channel(wi*64 + bits.TrailingZeros64(x))
			}
			count += bits.OnesCount64(x)
		}
		if count == 0 {
			continue // nothing to borrow from j
		}
		var bn int // |UpdateS_i ∩ IN_j|
		if b.masks != nil {
			bn = bits.OnesCount64(updateS[0] & b.masks[ji])
		} else {
			for _, k := range a.factory.grid.Interference(j) {
				if idx := a.nbrIdx(k); idx >= 0 && a.inMask(maskUpdateS, idx) {
					bn++
				}
			}
		}
		cands = append(cands, LenderCandidate{
			Cell:            j,
			FreePrimaries:   chanset.FromWords(set),
			FreeCount:       count,
			LowestFree:      lowest,
			SharedBorrowers: bn,
		})
	}
	if len(cands) == 0 {
		return hexgrid.None
	}
	idx := a.factory.strategy.Choose(cands, a.env.Rand())
	if idx < 0 || idx >= len(cands) {
		return hexgrid.None // strategy declined: fall through to search
	}
	return cands[idx].Cell
}

// buildNbrMasks sets, on the cell's first borrow attempt, the
// per-neighbor interference overlap as bitmasks over this cell's
// neighbor indices (grids whose neighborhoods exceed one word keep the
// scan in best): one merge of two sorted lists per neighbor, into a
// vector on the stack that is then interned in the factory.
func (a *Adaptive) buildNbrMasks() {
	var masks [64]uint64
	nbrs := a.neighbors()
	for ji, j := range nbrs {
		in, i := a.factory.grid.Interference(j), 0
		for idx, nb := range nbrs {
			for i < len(in) && in[i] < nb {
				i++
			}
			if i < len(in) && in[i] == nb {
				masks[ji] |= 1 << uint(idx)
			}
		}
	}
	f := a.factory
	f.masksMu.Lock()
	defer f.masksMu.Unlock()
	shared := f.masks[masks]
	if shared == nil {
		if f.masks == nil {
			f.masks = make(map[[64]uint64]*[64]uint64)
		}
		shared = new([64]uint64)
		*shared = masks
		f.masks[masks] = shared
	}
	a.block().masks = shared
}

// pickBorrow selects the channel to borrow from lender j: the lowest
// free channel primary to j (DESIGN.md D1).
func (a *Adaptive) pickBorrow(j hexgrid.CellID) chanset.Channel {
	free := a.freeAnywhere() // the slab's scratch set; consumed here
	free.IntersectWith(a.factory.assign.Primary[j])
	return free.First()
}

// awaitAll marks every interference neighbor as awaited. The await mask
// is shared across phases: only one request phase is collecting
// responses at any moment.
func (a *Adaptive) awaitAll() {
	n := len(a.neighbors())
	aw := a.mask(maskAwait)
	for i := range aw {
		aw[i] = ^uint64(0)
	}
	if r := uint(n) & 63; r != 0 {
		aw[len(aw)-1] = 1<<r - 1
	}
	a.awaitN = int32(n)
}

// awaitClear removes neighbor index k from the awaited set.
func (a *Adaptive) awaitClear(k int) {
	word, bit := a.maskBit(maskAwait, k)
	if *word&bit != 0 {
		*word &^= bit
		a.awaitN--
	}
}

// sendUpdateS sends m (From filled in) to every neighbor in UpdateS_i,
// in neighbor order.
func (a *Adaptive) sendUpdateS(m message.Message) {
	m.From = a.cell
	alloc.Multicast(a.env, m, a.mask(maskUpdateS))
}
