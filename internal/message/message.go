// Package message defines the control-plane messages of the paper's
// protocols (Section 3.2) plus a compact binary codec for them.
//
// One Message struct serves every scheme: the adaptive scheme and the
// baselines share REQUEST / RESPONSE / CHANGE_MODE / ACQUISITION /
// RELEASE, with unused fields zero. A receiver never aliases a sender's
// live state — stations only ever learn about each other through
// messages, exactly as in the distributed system being modelled — but
// the copy of a set payload (Use_j) is the transport's to take, once
// (alloc.Env.Send): a sender may hand in a view of its live Use_i, and a
// receiver reads the payload only until its Handle returns.
package message

import (
	"fmt"

	"repro/internal/chanset"
	"repro/internal/hexgrid"
	"repro/internal/lamport"
)

// Kind is the message type of Section 3.2.
type Kind uint8

const (
	// Request asks the interference neighborhood for a channel
	// (update-style: permission for a specific channel; search-style:
	// the neighbor's full Use set).
	Request Kind = iota
	// Response answers a Request or a ChangeMode.
	Response
	// ChangeMode announces a transition between local and borrowing
	// modes.
	ChangeMode
	// Acquisition announces that the sender acquired a channel.
	Acquisition
	// Release announces that the sender released a channel (or gave up
	// granted permissions after a failed borrowing attempt).
	Release
	// Ack is a transport-level acknowledgement of a sequenced message
	// (Seq carries the acknowledged sequence number). It belongs to the
	// reliability layer, never reaches an allocator, and exists as a
	// Kind so it shares the wire codec and traffic accounting.
	Ack
	numKinds
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Request:
		return "REQUEST"
	case Response:
		return "RESPONSE"
	case ChangeMode:
		return "CHANGE_MODE"
	case Acquisition:
		return "ACQUISITION"
	case Release:
		return "RELEASE"
	case Ack:
		return "ACK"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// NumKinds is the number of distinct message kinds (for metrics arrays).
const NumKinds = int(numKinds)

// ReqType distinguishes the two flavors of REQUEST.
type ReqType uint8

const (
	// ReqUpdate asks permission to use the specific channel Ch.
	ReqUpdate ReqType = iota
	// ReqSearch asks for the receiver's Use set.
	ReqSearch
	// ReqTransfer asks the receiver to transfer ownership of allocated
	// channel Ch (allocated-search scheme of Prakash et al., compared
	// against in the paper's Section 6).
	ReqTransfer
)

// String implements fmt.Stringer.
func (t ReqType) String() string {
	switch t {
	case ReqUpdate:
		return "update"
	case ReqSearch:
		return "search"
	case ReqTransfer:
		return "transfer"
	default:
		return fmt.Sprintf("ReqType(%d)", uint8(t))
	}
}

// ResType is the RESPONSE flavor of Section 3.2.
type ResType uint8

const (
	// ResReject denies permission for channel Ch.
	ResReject ResType = iota
	// ResGrant grants permission for channel Ch.
	ResGrant
	// ResSearch carries the sender's Use set in reply to a search
	// REQUEST.
	ResSearch
	// ResStatus carries the sender's Use set in reply to a CHANGE_MODE.
	ResStatus
	// ResCondGrant is the advanced update scheme's conditional grant
	// (not part of the adaptive protocol; see internal/baseline/advupdate).
	ResCondGrant
	// ResAgree accepts a ReqTransfer: the sender relinquishes channel
	// Ch to the requester (allocated-search scheme).
	ResAgree
	// ResKeep refuses a ReqTransfer: the sender keeps channel Ch.
	ResKeep
)

// String implements fmt.Stringer.
func (t ResType) String() string {
	switch t {
	case ResReject:
		return "reject"
	case ResGrant:
		return "grant"
	case ResSearch:
		return "search"
	case ResStatus:
		return "status"
	case ResCondGrant:
		return "cond-grant"
	case ResAgree:
		return "agree"
	case ResKeep:
		return "keep"
	default:
		return fmt.Sprintf("ResType(%d)", uint8(t))
	}
}

// AcqType distinguishes how the announced channel was acquired.
type AcqType uint8

const (
	// AcqNonSearch: acquired locally or via update borrowing.
	AcqNonSearch AcqType = iota
	// AcqSearch: acquired (or abandoned, Ch == NoChannel) by a search;
	// receivers decrement their waiting counters.
	AcqSearch
)

// Mode values carried by CHANGE_MODE.
const (
	ModeLocal     uint8 = 0
	ModeBorrowing uint8 = 1
)

// Message is one control message between mobile service stations.
type Message struct {
	Kind Kind
	From hexgrid.CellID
	To   hexgrid.CellID

	Req ReqType
	Res ResType
	Acq AcqType
	// Mode is the new mode for ChangeMode messages.
	Mode uint8
	// Ch is the channel being requested / granted / rejected /
	// acquired / released; NoChannel when not applicable.
	Ch chanset.Channel
	// TS is the requester's timestamp (REQUEST) or is echoed for
	// correlation (RESPONSE).
	TS lamport.Stamp
	// Seq is the transport-level sequence number stamped by the
	// reliability layer (per directed link, starting at 1; 0 means
	// unsequenced). For Ack messages it is the acknowledged sequence
	// number. The protocol layer never reads it.
	Seq uint64
	// Use carries the sender's used-channel set for ResSearch and
	// ResStatus responses. Always an independent copy.
	Use chanset.Set
}

// String renders a compact human-readable form for traces.
func (m Message) String() string {
	switch m.Kind {
	case Request:
		return fmt.Sprintf("REQUEST(%s,ch=%d,ts=%s) %d->%d", m.Req, m.Ch, m.TS, m.From, m.To)
	case Response:
		if m.Res == ResSearch || m.Res == ResStatus {
			return fmt.Sprintf("RESPONSE(%s,use=%s) %d->%d", m.Res, m.Use, m.From, m.To)
		}
		return fmt.Sprintf("RESPONSE(%s,ch=%d) %d->%d", m.Res, m.Ch, m.From, m.To)
	case ChangeMode:
		return fmt.Sprintf("CHANGE_MODE(%d) %d->%d", m.Mode, m.From, m.To)
	case Acquisition:
		return fmt.Sprintf("ACQUISITION(%d,ch=%d) %d->%d", m.Acq, m.Ch, m.From, m.To)
	case Release:
		return fmt.Sprintf("RELEASE(ch=%d) %d->%d", m.Ch, m.From, m.To)
	case Ack:
		return fmt.Sprintf("ACK(seq=%d) %d->%d", m.Seq, m.From, m.To)
	default:
		return fmt.Sprintf("Message(kind=%d)", m.Kind)
	}
}
