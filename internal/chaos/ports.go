package chaos

import (
	"fmt"
	"math/rand/v2"
	"net"
	"os"
	"strconv"
	"strings"
	"sync"
)

// ports walks the upper half of the ports below the kernel's ephemeral
// range, from a random start so that two test processes rarely walk the
// same ports; one process hands no port out twice until the walk wraps.
var ports struct {
	once      sync.Once
	mu        sync.Mutex
	low, next int // low is 0 when the range could not be read
}

// Listen opens a localhost listener on a port below the lower bound of the
// kernel's ephemeral range (/proc/sys/net/ipv4/ip_local_port_range).
// Outbound connections draw their source ports from that range, so once
// the listener is closed its port stays free until whoever it was handed
// to — a node, a proxy healing a partition — binds it again; a port from
// :0 lies inside the range, and any connection opened meanwhile can take
// it. Each port is checked by binding it. Where the range cannot be read,
// Listen binds :0.
func Listen() (net.Listener, error) {
	ports.once.Do(func() {
		b, _ := os.ReadFile("/proc/sys/net/ipv4/ip_local_port_range")
		if f := strings.Fields(string(b)); len(f) > 0 {
			if low, err := strconv.Atoi(f[0]); err == nil && low >= 2048 {
				ports.low, ports.next = low, low/2+rand.IntN(low-low/2)
			}
		}
	})
	if ports.low == 0 {
		return net.Listen("tcp", "127.0.0.1:0")
	}
	ports.mu.Lock()
	defer ports.mu.Unlock()
	for range ports.low - ports.low/2 {
		port := ports.next
		if ports.next++; ports.next == ports.low {
			ports.next = ports.low / 2
		}
		if ln, err := net.Listen("tcp", fmt.Sprintf("127.0.0.1:%d", port)); err == nil {
			return ln, nil
		}
	}
	return nil, fmt.Errorf("chaos: no free port below %d", ports.low)
}
