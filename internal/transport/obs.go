package transport

import "repro/internal/obs"

// RegisterObs binds scrape-time counters over stats() into r, one
// family per transport counter (wire traffic, injected faults,
// reliability-layer work). stats is called at collection time, so it
// must be safe to invoke from the scrape goroutine — Live, Faulty and
// Reliable all satisfy this (atomics or mutex-guarded Stats); the DES
// driver's per-shard Stats do not, which is why it renders its message
// count from the snapshot it publishes (driver.Options.Obs) instead of
// registering here.
//
// Registering several stats funcs (one per node) under one registry is
// supported: func collectors under the same name sum at collection
// time, so a shared registry reports fabric-wide totals. Nil-safe.
func RegisterObs(r *obs.Registry, stats func() Stats) {
	if r == nil {
		return
	}
	reg := func(name, help string, get func(Stats) uint64) {
		r.CounterFunc(name, help, func() float64 { return float64(get(stats())) })
	}
	reg("adca_transport_messages_total",
		"Messages accepted by the transport stack.",
		func(s Stats) uint64 { return s.Total })
	reg("adca_transport_wire_bytes_total",
		"Encoded wire bytes carried (zero when the codec is not engaged).",
		func(s Stats) uint64 { return s.Bytes })
	reg("adca_transport_drops_injected_total",
		"Messages dropped by the fault injector.",
		func(s Stats) uint64 { return s.DropsInjected })
	reg("adca_transport_dups_injected_total",
		"Messages duplicated by the fault injector.",
		func(s Stats) uint64 { return s.DupsInjected })
	reg("adca_transport_reorders_injected_total",
		"Messages reordered by the fault injector.",
		func(s Stats) uint64 { return s.ReordersInjected })
	reg("adca_transport_retransmits_total",
		"Retransmissions by the reliability layer.",
		func(s Stats) uint64 { return s.Retransmits })
	reg("adca_transport_dups_suppressed_total",
		"Duplicate deliveries suppressed by the reliability layer.",
		func(s Stats) uint64 { return s.DupsSuppressed })
	reg("adca_transport_acks_sent_total",
		"Acknowledgements sent by the reliability layer.",
		func(s Stats) uint64 { return s.AcksSent })
	reg("adca_transport_retry_exhausted_total",
		"Messages abandoned after exhausting their retransmit budget.",
		func(s Stats) uint64 { return s.RetryExhausted })
}
