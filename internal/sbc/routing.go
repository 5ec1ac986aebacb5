package sbc

import (
	"github.com/zeroloss/zlb/internal/bincon"
	"github.com/zeroloss/zlb/internal/rbc"
	"github.com/zeroloss/zlb/internal/simnet"
	"github.com/zeroloss/zlb/internal/types"
)

// ContextInstanceOf extracts (context, instance) from any consensus
// message exchanged by the SBC stack (reliable broadcast, binary
// consensus, proposal pulls). ok is false for non-consensus messages.
func ContextInstanceOf(msg simnet.Message) (uint8, types.Instance, bool) {
	switch m := msg.(type) {
	case *rbc.Init:
		return m.Stmt.Stmt.Context, m.Stmt.Stmt.Instance, true
	case *rbc.Echo:
		return m.Stmt.Stmt.Context, m.Stmt.Stmt.Instance, true
	case *rbc.Ready:
		return m.Stmt.Stmt.Context, m.Stmt.Stmt.Instance, true
	case *rbc.PayloadReq:
		return m.Context, m.Instance, true
	case *rbc.PayloadResp:
		return m.Context, m.Instance, true
	case *bincon.Est:
		return m.Context, m.Instance, true
	case *bincon.Coord:
		return m.Stmt.Stmt.Context, m.Stmt.Stmt.Instance, true
	case *bincon.Aux:
		return m.Stmt.Stmt.Context, m.Stmt.Stmt.Instance, true
	case *bincon.Decide:
		return m.Context, m.Instance, true
	case *bincon.DecideReq:
		return m.Context, m.Instance, true
	case *ProposalReq:
		return m.Context, m.Instance, true
	case *ProposalResp:
		return m.Context, m.Instance, true
	default:
		return 0, 0, false
	}
}
