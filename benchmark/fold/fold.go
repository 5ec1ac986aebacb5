// Package fold attributes the samples of a node's CPU profile to the
// repository's layers, from outside the binary: it reads the text that
// `go tool pprof -traces` prints and charges every sample to one
// consumer layer and to one kind of work.
//
// The consumer layer of a sample is the package of its innermost frame
// in github.com/zeroloss/zlb/internal/ that is not one of the utility
// packages (crypto, pipeline, types), which do work on behalf of
// whoever called them. A sample with no such frame belongs to "node"
// when a frame of package main is on the stack (the binary's own glue,
// including its metrics endpoint), to the utility package when one is,
// and to "runtime" otherwise (scheduler, garbage collector, netpoller).
//
// The kind of a sample is the first rule of kindRules that any of its
// frames matches, so a hash computed inside a signature check counts as
// signature verification and an allocation made by gob as allocation.
package fold

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"os/exec"
	"strings"
	"time"
)

const internalPrefix = "github.com/zeroloss/zlb/internal/"

// Layers a sample can be charged to besides the internal package names.
const (
	LayerNode    = "node"
	LayerRuntime = "runtime"
)

var utility = map[string]bool{"crypto": true, "pipeline": true, "types": true}

// KindOther is the kind of a sample no rule matches.
const KindOther = "other"

// kindRules are tried in order; a rule matches a sample when any frame's
// function name starts with one of its prefixes.
var kindRules = []struct {
	kind     string
	prefixes []string
}{
	{"sigverify", []string{"crypto/ed25519.Verify", "crypto/ecdsa.Verify"}},
	{"sign", []string{"crypto/ed25519.Sign", "crypto/ed25519.(*PrivateKey).Sign", "crypto/ecdsa.Sign"}},
	{"gc", []string{"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.gcDrain", "runtime.gcStart",
		"runtime.gcMarkDone", "runtime.gcMarkTermination", "runtime.bgsweep", "runtime.bgscavenge"}},
	{"alloc", []string{"runtime.mallocgc", "runtime.newobject", "runtime.makeslice", "runtime.growslice"}},
	{"hash", []string{"crypto/sha256.", "crypto/sha512.", "crypto/internal/fips140/sha256.", "crypto/internal/fips140/sha512."}},
	{"syscall", []string{"syscall.Syscall", "syscall.RawSyscall", "internal/runtime/syscall.", "runtime/internal/syscall.",
		"runtime.futex", "runtime.epollwait", "runtime.netpoll", "runtime.usleep"}},
	{"gob", []string{"encoding/gob."}},
}

// Profile is a folded CPU profile: sampled time in total, by consumer
// layer and by kind. Each map's values add up to Total.
type Profile struct {
	Total time.Duration
	Layer map[string]time.Duration
	Kind  map[string]time.Duration
}

// New returns an empty profile to Add others to.
func New() *Profile {
	return &Profile{Layer: make(map[string]time.Duration), Kind: make(map[string]time.Duration)}
}

// Add accumulates another profile, e.g. another node's.
func (p *Profile) Add(o *Profile) {
	p.Total += o.Total
	for k, v := range o.Layer {
		p.Layer[k] += v
	}
	for k, v := range o.Kind {
		p.Kind[k] += v
	}
}

// LayerShare is the fraction of sampled time charged to the layer.
func (p *Profile) LayerShare(layer string) float64 { return share(p.Layer[layer], p.Total) }

// KindShare is the fraction of sampled time charged to the kind.
func (p *Profile) KindShare(kind string) float64 { return share(p.Kind[kind], p.Total) }

func share(part, total time.Duration) float64 {
	if total == 0 {
		return 0
	}
	return float64(part) / float64(total)
}

// Traces runs `go tool pprof -traces` on a CPU profile of the binary and
// folds its output.
func Traces(ctx context.Context, binary, profile string) (*Profile, error) {
	cmd := exec.CommandContext(ctx, "go", "tool", "pprof", "-traces", binary, profile)
	var stderr strings.Builder
	cmd.Stderr = &stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	p, ferr := Fold(out)
	_, _ = io.Copy(io.Discard, out) // let pprof finish writing after a parse error
	if err := cmd.Wait(); err != nil {
		return nil, fmt.Errorf("go tool pprof -traces %s: %w\n%s", profile, err, stderr.String())
	}
	return p, ferr
}

// Fold reads `pprof -traces` text: a header, then one block per distinct
// stack, separated by dashed lines. A block's first line holds the
// sampled time and the leaf function; the following lines are its
// callers, innermost first.
func Fold(r io.Reader) (*Profile, error) {
	p := New()
	var (
		stack  []string
		value  time.Duration
		inBody bool
	)
	flush := func() {
		if len(stack) > 0 {
			p.Total += value
			p.Layer[layerOf(stack)] += value
			p.Kind[kindOf(stack)] += value
		}
		stack = stack[:0]
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----") {
			flush()
			inBody = true
			continue
		}
		if !inBody {
			continue // header
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		if len(stack) == 0 {
			d, err := time.ParseDuration(fields[0])
			if err != nil || len(fields) < 2 {
				return nil, fmt.Errorf("fold: expected \"<time> <function>\", got %q", line)
			}
			value = d
			fields = fields[1:]
		}
		// A trailing "(inline)" is pprof's annotation, not part of the name.
		stack = append(stack, fields[0])
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("fold: %w", err)
	}
	flush()
	return p, nil
}

// internalPkg returns the internal package a function belongs to.
func internalPkg(fn string) (string, bool) {
	rest, ok := strings.CutPrefix(fn, internalPrefix)
	if !ok {
		return "", false
	}
	if i := strings.IndexAny(rest, "./"); i > 0 {
		return rest[:i], true
	}
	return "", false
}

func layerOf(stack []string) string {
	fallback := LayerRuntime
	for _, fn := range stack {
		if pkg, ok := internalPkg(fn); ok {
			if !utility[pkg] {
				return pkg
			}
			if fallback == LayerRuntime {
				fallback = pkg
			}
		}
	}
	for _, fn := range stack {
		if strings.HasPrefix(fn, "main.") {
			return LayerNode
		}
	}
	return fallback
}

func kindOf(stack []string) string {
	for _, rule := range kindRules {
		for _, fn := range stack {
			for _, prefix := range rule.prefixes {
				if strings.HasPrefix(fn, prefix) {
					return rule.kind
				}
			}
		}
	}
	return KindOther
}
