// Package cluster spawns a real localhost zlb-node cluster as child
// processes and observes it strictly from outside the binary: /status
// and /metrics over HTTP, CPU profiles from the node's own
// /debug/pprof/profile, and CPU time and resident memory from /proc.
//
// Every child runs in its own process group, is sent SIGKILL when the
// benchmark process dies (Pdeathsig), and keeps its stderr in a file
// whose tail LogTails returns for failure reports.
package cluster

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/zeroloss/zlb/internal/mempool"
	"github.com/zeroloss/zlb/internal/transport"
)

// Config describes one cluster.
type Config struct {
	// Binary is the zlb-node executable (see Build).
	Binary string
	// N is the committee size.
	N int
	// Seed is the nodes' shared -seed (demo PKI and faucet key).
	Seed int64
	// Dir receives node<i>.log and, when Durable, the data directories.
	Dir string
	// Durable gives every node a -data-dir under Dir.
	Durable bool
	// GOMAXPROCS is set in every node's environment.
	GOMAXPROCS int
}

// Node is one running zlb-node process.
type Node struct {
	ID          int
	Addr        string // replica listen address (peers and clients)
	MetricsAddr string
	DataDir     string // "" unless durable
	LogPath     string

	cmd    *exec.Cmd
	exited chan struct{} // closed once cmd.Wait has returned
}

// Cluster is a set of running nodes.
type Cluster struct {
	Nodes []*Node
	http  *http.Client
}

// Status is the part of the node's /status document the benchmark
// reads. The nested types are the node's own, so a renamed field fails
// the build here instead of silently reading zero.
type Status struct {
	Height          int64                  `json:"height"`
	BlocksCommitted uint64                 `json:"blocks_committed"`
	TxsApplied      uint64                 `json:"txs_applied"`
	Mempool         mempool.Stats          `json:"mempool"`
	Transport       transport.Stats        `json:"transport"`
	Peers           []transport.PeerHealth `json:"peers"`
}

// SentBytes totals the bytes this node delivered to its peers.
func (s *Status) SentBytes() (bytes, frames uint64) {
	for _, p := range s.Peers {
		bytes += p.SentBytes
		frames += p.SentMsgs
	}
	return bytes, frames
}

// Build compiles ./cmd/zlb-node of the module in the working directory.
func Build(ctx context.Context, out string) error {
	cmd := exec.CommandContext(ctx, "go", "build", "-o", out, "./cmd/zlb-node")
	if b, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("building zlb-node: %w\n%s", err, b)
	}
	return nil
}

// freePorts returns k distinct loopback addresses found by listening on
// port 0. The listeners are closed before returning, so another process
// could take a port in between; Start fails loudly if a node cannot bind.
func freePorts(k int) ([]string, error) {
	addrs := make([]string, 0, k)
	lns := make([]net.Listener, 0, k)
	defer func() {
		for _, ln := range lns {
			ln.Close()
		}
	}()
	for i := 0; i < k; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("finding a free port: %w", err)
		}
		lns = append(lns, ln)
		addrs = append(addrs, ln.Addr().String())
	}
	return addrs, nil
}

// Start spawns the cluster and returns once every node answers /status.
// On error every process already started has been killed.
func Start(ctx context.Context, cfg Config) (*Cluster, error) {
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, err
	}
	addrs, err := freePorts(2 * cfg.N)
	if err != nil {
		return nil, err
	}
	peers := strings.Join(addrs[:cfg.N], ",")
	c := &Cluster{http: &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 4,
		DisableCompression:  true,
	}}}
	for i := 0; i < cfg.N; i++ {
		nd := &Node{
			ID:          i + 1,
			Addr:        addrs[i],
			MetricsAddr: addrs[cfg.N+i],
			LogPath:     filepath.Join(cfg.Dir, fmt.Sprintf("node%d.log", i+1)),
			exited:      make(chan struct{}),
		}
		args := []string{
			"-id", strconv.Itoa(nd.ID), "-n", strconv.Itoa(cfg.N),
			"-listen", nd.Addr, "-peers", peers,
			"-seed", strconv.FormatInt(cfg.Seed, 10),
			"-metrics-addr", nd.MetricsAddr, "-log-level", "warn",
		}
		if cfg.Durable {
			nd.DataDir = filepath.Join(cfg.Dir, fmt.Sprintf("data%d", nd.ID))
			args = append(args, "-data-dir", nd.DataDir, "-checkpoint-every", "16")
		}
		logf, err := os.Create(nd.LogPath)
		if err != nil {
			c.Kill()
			return nil, err
		}
		nd.cmd = exec.Command(cfg.Binary, args...)
		nd.cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(cfg.GOMAXPROCS))
		nd.cmd.Stdout = logf
		nd.cmd.Stderr = logf
		nd.cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
		err = nd.cmd.Start()
		logf.Close() // the child holds its own descriptor
		if err != nil {
			c.Kill()
			return nil, fmt.Errorf("starting node %d: %w", nd.ID, err)
		}
		go func() {
			_ = nd.cmd.Wait() // exit status is irrelevant: Stop and Kill end nodes by signal
			close(nd.exited)
		}()
		c.Nodes = append(c.Nodes, nd)
	}
	for _, nd := range c.Nodes {
		if err := c.awaitStatus(ctx, nd); err != nil {
			c.Kill()
			return nil, err
		}
	}
	return c, nil
}

func (c *Cluster) awaitStatus(ctx context.Context, nd *Node) error {
	for {
		if _, err := c.Status(ctx, nd.ID); err == nil {
			return nil
		}
		select {
		case <-nd.exited:
			return fmt.Errorf("node %d exited during start-up", nd.ID)
		case <-ctx.Done():
			return fmt.Errorf("node %d never answered /status: %w", nd.ID, ctx.Err())
		case <-time.After(2 * time.Millisecond):
		}
	}
}

func (c *Cluster) get(ctx context.Context, id int, path string) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+c.Nodes[id-1].MetricsAddr+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		return nil, fmt.Errorf("node %d %s: %s", id, path, resp.Status)
	}
	return resp, nil
}

// Status fetches node id's /status (ids are 1-based, like replica IDs).
func (c *Cluster) Status(ctx context.Context, id int) (Status, error) {
	var st Status
	resp, err := c.get(ctx, id, "/status")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return st, fmt.Errorf("node %d /status: %w", id, err)
	}
	return st, nil
}

// StatusAll fetches every node's /status, in ID order.
func (c *Cluster) StatusAll(ctx context.Context) ([]Status, error) {
	out := make([]Status, len(c.Nodes))
	for i := range c.Nodes {
		st, err := c.Status(ctx, i+1)
		if err != nil {
			return nil, err
		}
		out[i] = st
	}
	return out, nil
}

// Metrics fetches node id's /metrics and returns every sample keyed by
// its series name including labels, e.g. `zlb_peer_sent_total{peer="2"}`.
func (c *Cluster) Metrics(ctx context.Context, id int) (map[string]float64, error) {
	resp, err := c.get(ctx, id, "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return ParseMetrics(resp.Body)
}

// ParseMetrics reads the Prometheus text exposition format.
func ParseMetrics(r io.Reader) (map[string]float64, error) {
	out := make(map[string]float64)
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return nil, fmt.Errorf("metrics: malformed line %q", line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: %q: %w", line, err)
		}
		out[line[:sp]] = v
	}
	return out, sc.Err()
}

// Profile pulls a CPU profile of the given length from node id's
// /debug/pprof/profile into path. It blocks for the profile's duration.
func (c *Cluster) Profile(ctx context.Context, id int, d time.Duration, path string) error {
	resp, err := c.get(ctx, id, fmt.Sprintf("/debug/pprof/profile?seconds=%d", int(d.Seconds())))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := io.Copy(f, resp.Body); err != nil {
		f.Close()
		return fmt.Errorf("node %d profile: %w", id, err)
	}
	return f.Close()
}

// Stop ends every node gracefully (SIGTERM: the node drains its event
// loop and closes its store), escalating to SIGKILL at the deadline.
func (c *Cluster) Stop(ctx context.Context) {
	for _, nd := range c.Nodes {
		_ = nd.cmd.Process.Signal(syscall.SIGTERM) // fails only if already gone
	}
	for _, nd := range c.Nodes {
		select {
		case <-nd.exited:
		case <-ctx.Done():
			c.Kill()
			return
		}
	}
}

// Kill sends SIGKILL to every node's process group and waits for the
// processes to be reaped. Safe to call more than once and after Stop: a
// node already reaped is not signalled, because its pid may have been
// given to another process since.
func (c *Cluster) Kill() {
	for _, nd := range c.Nodes {
		select {
		case <-nd.exited:
		default:
			_ = syscall.Kill(-nd.cmd.Process.Pid, syscall.SIGKILL)
		}
	}
	for _, nd := range c.Nodes {
		<-nd.exited
	}
	c.http.CloseIdleConnections()
}

// LogTails returns the last lines of every node's stderr, for failure
// reports.
func (c *Cluster) LogTails(lines int) string {
	var b strings.Builder
	for _, nd := range c.Nodes {
		fmt.Fprintf(&b, "--- node %d (%s) ---\n", nd.ID, nd.LogPath)
		data, err := os.ReadFile(nd.LogPath)
		if err != nil {
			fmt.Fprintf(&b, "%v\n", err)
			continue
		}
		all := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
		if len(all) > lines {
			all = all[len(all)-lines:]
		}
		b.WriteString(strings.Join(all, "\n"))
		b.WriteByte('\n')
	}
	return b.String()
}
