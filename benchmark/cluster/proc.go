package cluster

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"
)

// clockTick is the kernel's USER_HZ, the unit of the CPU times in
// /proc/<pid>/stat. It is 100 on every Linux platform Go supports, and
// reading it properly needs sysconf(3), that is cgo.
const clockTick = 100

// CPUTime returns node id's user+system CPU time so far.
func (c *Cluster) CPUTime(id int) (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", c.Nodes[id-1].cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	return parseStatCPU(string(data))
}

// parseStatCPU extracts utime+stime from a /proc/<pid>/stat line. The
// command name (field 2) may contain spaces and parentheses, so fields
// are counted from the last ')'.
func parseStatCPU(stat string) (time.Duration, error) {
	end := strings.LastIndexByte(stat, ')')
	if end < 0 {
		return 0, fmt.Errorf("proc stat: no command field in %q", stat)
	}
	f := strings.Fields(stat[end+1:])
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, fmt.Errorf("proc stat: %d fields after the command", len(f))
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("proc stat: bad cpu fields %q %q", f[11], f[12])
	}
	return time.Duration(utime+stime) * time.Second / clockTick, nil
}

// RSSBytes returns node id's resident set size (VmRSS).
func (c *Cluster) RSSBytes(id int) (int64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", c.Nodes[id-1].cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	return parseVmRSS(string(data))
}

func parseVmRSS(status string) (int64, error) {
	for _, line := range strings.Split(status, "\n") {
		if rest, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			f := strings.Fields(rest)
			if len(f) != 2 || f[1] != "kB" {
				return 0, fmt.Errorf("proc status: unexpected VmRSS line %q", line)
			}
			kb, err := strconv.ParseInt(f[0], 10, 64)
			if err != nil {
				return 0, fmt.Errorf("proc status: %w", err)
			}
			return kb << 10, nil
		}
	}
	return 0, fmt.Errorf("proc status: no VmRSS line")
}
