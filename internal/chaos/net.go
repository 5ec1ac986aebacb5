package chaos

import (
	"fmt"

	"github.com/zeroloss/zlb/internal/types"
)

// Net is the full proxy mesh for an n-replica cluster: one Proxy per
// directed link (from, to), so faults can be asymmetric — a one-way
// blackhole or a slow reader affects exactly one direction of one pair.
// Nodes are configured with PeersFor addresses; clients keep dialing
// the real listen addresses, so submits bypass the mesh the way real
// client traffic bypasses inter-replica links.
type Net struct {
	real  []string // real listen addresses in ID order (index 0 = replica 1)
	links map[[2]types.ReplicaID]*Proxy
}

// NewNet builds the mesh over the cluster's real listen addresses
// (index i serves replica i+1).
func NewNet(realAddrs []string) (*Net, error) {
	n := &Net{
		real:  append([]string(nil), realAddrs...),
		links: make(map[[2]types.ReplicaID]*Proxy),
	}
	for i := range realAddrs {
		for j := range realAddrs {
			if i == j {
				continue
			}
			from, to := types.ReplicaID(i+1), types.ReplicaID(j+1)
			p, err := NewProxy(fmt.Sprintf("%d→%d", from, to), realAddrs[j])
			if err != nil {
				n.Close()
				return nil, err
			}
			n.links[[2]types.ReplicaID{from, to}] = p
		}
	}
	return n, nil
}

// PeersFor is the peer address list replica id should be configured
// with: every other replica's entry is the proxy for the (id → other)
// link, its own entry is its real listen address.
func (n *Net) PeersFor(id types.ReplicaID) []string {
	out := make([]string, len(n.real))
	for j := range n.real {
		to := types.ReplicaID(j + 1)
		if to == id {
			out[j] = n.real[j]
			continue
		}
		out[j] = n.links[[2]types.ReplicaID{id, to}].Addr()
	}
	return out
}

// Link returns the proxy carrying from's traffic toward to.
func (n *Net) Link(from, to types.ReplicaID) *Proxy {
	return n.links[[2]types.ReplicaID{from, to}]
}

// Close tears the mesh down.
func (n *Net) Close() {
	for _, p := range n.links {
		p.Close()
	}
}
