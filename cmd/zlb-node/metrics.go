// Node observability: a dependency-free HTTP endpoint (-metrics-addr)
// exposing Prometheus-text metrics at /metrics, an operator-facing JSON
// snapshot at /status, and the standard pprof profiling handlers under
// /debug/pprof/. The registry is the payment application's
// (internal/node), which always maintains it — counter updates are
// lock-free atomics, negligible next to a commit; this file adds the
// transport's series to it, and only the HTTP listener is conditional on
// the flag.
package main

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"

	"github.com/zeroloss/zlb/internal/node"
	"github.com/zeroloss/zlb/internal/obs"
	"github.com/zeroloss/zlb/internal/transport"
	"github.com/zeroloss/zlb/internal/types"
)

// wireTransport registers the transport's node-wide counters and the
// per-peer health series. All values are read from the transport's
// lock-free counters at scrape time, so the series cost nothing on the
// consensus path.
func wireTransport(reg *obs.Metrics, node *transport.Node, members []types.ReplicaID) {
	reg.CounterFunc("zlb_transport_frames_sent_total", "Frames written to peer connections.",
		func() float64 { return float64(node.Stats().Sent) })
	reg.CounterFunc("zlb_transport_events_received_total", "Events handled by the replica's event loop.",
		func() float64 { return float64(node.Stats().Received) })
	reg.CounterFunc("zlb_transport_events_dropped", "Inbound or self events dropped by a full event queue.",
		func() float64 { return float64(node.Stats().EventsDropped) })
	reg.CounterFunc("zlb_transport_decode_errors", "Inbound frames that failed to decode or were refused (connection dropped).",
		func() float64 { return float64(node.Stats().DecodeErrors) })
	reg.CounterFunc("zlb_transport_send_drops_total", "Outbound frames dropped: displaced from full peer queues, failed past the retry budget, or refused unencodable.",
		func() float64 { return float64(node.Stats().SendDrops) })
	reg.CounterFunc("zlb_transport_submit_backpressure_total", "Client submits refused with a backpressure ack.",
		func() float64 { return float64(node.Stats().SubmitBackpressure) })

	self := node.Self()
	for _, id := range members {
		if id == self {
			continue
		}
		peer := id
		label := fmt.Sprintf("%d", peer)
		reg.GaugeFunc("zlb_peer_state", "Peer connection state (0=idle 1=connected 2=backoff 3=suspect).",
			func() float64 { return float64(node.PeerHealthFor(peer).State) }, "peer", label)
		reg.GaugeFunc("zlb_peer_queue_len", "Frames waiting in the peer's outbound queue.",
			func() float64 { return float64(node.PeerHealthFor(peer).QueueLen) }, "peer", label)
		reg.GaugeFunc("zlb_peer_consecutive_failures", "Consecutive dial or write failures toward the peer.",
			func() float64 { return float64(node.PeerHealthFor(peer).ConsecutiveFailures) }, "peer", label)
		reg.CounterFunc("zlb_peer_sent_total", "Frames delivered to the peer.",
			func() float64 { return float64(node.PeerHealthFor(peer).SentMsgs) }, "peer", label)
		reg.CounterFunc("zlb_peer_sent_bytes_total", "Bytes delivered to the peer.",
			func() float64 { return float64(node.PeerHealthFor(peer).SentBytes) }, "peer", label)
		reg.CounterFunc("zlb_peer_writes_total", "Writes that carried frames to the peer; zlb_peer_sent_total over this is frames per write.",
			func() float64 { return float64(node.PeerHealthFor(peer).Writes) }, "peer", label)
		reg.CounterFunc("zlb_peer_drops_total", "Frames to the peer displaced by queue overflow, failed past the retry budget, or refused unencodable.",
			func() float64 { return float64(node.PeerHealthFor(peer).Drops) }, "peer", label)
		reg.CounterFunc("zlb_peer_reconnects_total", "Times the writer re-established the peer's connection.",
			func() float64 { return float64(node.PeerHealthFor(peer).Reconnects) }, "peer", label)
	}
}

// status is the /status JSON document: the same state the metrics expose,
// in one human- and script-friendly snapshot.
type status struct {
	ID types.ReplicaID `json:"id"`
	N  int             `json:"n"`
	// Chain height and counts, and the "replica", "memory", "pipeline",
	// "mempool" and "wallet_key_cache" objects.
	node.Status
	// Transport is the node-wide transport counter snapshot; Peers is
	// per-peer send-path health (state, failures, drops, reconnects).
	Transport     transport.Stats        `json:"transport"`
	Peers         []transport.PeerHealth `json:"peers"`
	UptimeSeconds float64                `json:"uptime_seconds"`
}

func (rn *replicaNode) statusSnapshot() status {
	return status{
		ID:            rn.cfg.Self,
		N:             rn.cfg.N,
		Status:        rn.app.Status(),
		Transport:     rn.node.Stats(),
		Peers:         rn.node.PeerHealth(),
		UptimeSeconds: rn.node.Now().Seconds(),
	}
}

// startMetricsServer binds addr and serves /metrics, /status and
// /debug/pprof/ until Close. The bound address is available through
// metricsAddr (tests bind ":0").
func (rn *replicaNode) startMetricsServer(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("metrics listener: %w", err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = rn.app.Metrics().WritePrometheus(w)
	})
	mux.HandleFunc("/status", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(rn.statusSnapshot())
	})
	// The pprof handlers are registered explicitly on this mux (importing
	// net/http/pprof for its side effect would pollute the default mux).
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	rn.metricsLn = ln
	rn.httpSrv = &http.Server{Handler: mux}
	go func() {
		if err := rn.httpSrv.Serve(ln); err != nil && err != http.ErrServerClosed {
			rn.log.Errorf("metrics server: %v", err)
		}
	}()
	rn.log.Infof("metrics on http://%s/metrics", ln.Addr())
	return nil
}

// metricsAddr reports the bound metrics address ("" when disabled).
func (rn *replicaNode) metricsAddr() string {
	if rn.metricsLn == nil {
		return ""
	}
	return rn.metricsLn.Addr().String()
}
