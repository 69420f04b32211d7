package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// manifest records where and how a run was made: committed numbers from
// one machine shape cannot be compared with another's unless each says
// which it was.
type manifest struct {
	environment
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Seconds  int    `json:"seconds"`
	Trace    bool   `json:"trace"`
	Smoke    bool   `json:"smoke"`
	Depth    int    `json:"pipeline_depth"`

	Keys        int    `json:"keys"`
	Preload     int    `json:"preloaded_keys"`
	MemoryBytes uint64 `json:"memory_bytes"`
	Buckets     int    `json:"buckets"`
	Device      string `json:"device"`
	Durability  string `json:"durability"`
	LinkCache   bool   `json:"link_cache"`
	WriteLatNs  int64  `json:"write_latency_ns"`
	Follower    bool   `json:"follower"`

	Setups    int     `json:"timed_setups"`
	WarmS     float64 `json:"warmup_s"`
	WindowS   float64 `json:"window_s"`
	Windows   int     `json:"windows"`
	LedgerOps int     `json:"ledger_ops"`
}

// environment is the machine and build a run, or a run set, was made on.
type environment struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
	Commit     string `json:"commit"`
	Clients    int    `json:"clients"`
}

func newEnvironment() environment {
	return environment{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Kernel: firstLine("/proc/sys/kernel/osrelease"), Commit: commit(), Clients: clientCount(),
	}
}

func newManifest(o options, e *env) manifest {
	windows := e.sz.windows
	if o.trace {
		windows = e.sz.phaseWindows
	}
	return manifest{
		environment: newEnvironment(),
		Workload:    o.workload, Seed: o.seed, Seconds: o.seconds, Trace: o.trace, Smoke: o.smoke,
		Depth: e.w.depth,
		Keys:  e.keys, Preload: e.preload, MemoryBytes: e.sz.memoryBytes, Buckets: e.sz.buckets,
		Device: "mem", Durability: "synced", LinkCache: e.w.linkCache,
		WriteLatNs: writeLatency.Nanoseconds(), Follower: e.w.repl,
		Setups: e.sz.setups, WarmS: e.sz.warm.Seconds(), WindowS: e.sz.window.Seconds(),
		Windows: windows, LedgerOps: e.sz.ledgerOps,
	}
}

func firstLine(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return "unknown"
	}
	line, _, _ := strings.Cut(string(b), "\n")
	return strings.TrimSpace(line)
}

// commit reads the checked-out commit from .git in the working directory
// without running git; the driver's checkouts have no .git and say so.
func commit() string {
	head := firstLine(filepath.Join(".git", "HEAD"))
	if ref, ok := strings.CutPrefix(head, "ref: "); ok {
		return firstLine(filepath.Join(".git", ref))
	}
	return head
}

func (m manifest) write(w io.Writer) {
	b, _ := json.Marshal(m) // a struct of plain fields cannot fail to marshal
	fmt.Fprintf(w, "manifest %s\n", b)
}

// line renders the one JSON object the driver reads: exactly the keys
// correct, attempted, failed and metrics, every value with all its digits.
func (res *result) line() string {
	var b strings.Builder
	fmt.Fprintf(&b, `{"correct": %t, "attempted": %d, "failed": %d, "metrics": {`,
		res.correct, max(res.attempted, 1), res.failed)
	for i, d := range res.defs {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, `%q: {"value": %s, "unit": %q}`,
			d.name, strconv.FormatFloat(res.values[d.name], 'g', -1, 64), d.unit)
	}
	b.WriteString("}}")
	return b.String()
}

// writeFile leaves the manifest beside the numbers: result-<workload>.json
// for the end-to-end run, layers-<workload>.json for the traced one.
func (res *result) writeFile(o options) error {
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return fmt.Errorf("create output directory: %w", err)
	}
	kind := "result" // the end-to-end run
	if o.trace {
		kind = "layers"
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	doc := struct {
		Manifest  manifest         `json:"manifest"`
		Correct   bool             `json:"correct"`
		Attempted uint64           `json:"attempted"`
		Failed    uint64           `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
		Speed     float64          `json:"machine_speed,omitempty"`
		Raw       metrics          `json:"as_measured,omitempty"`
		Notes     []string         `json:"notes,omitempty"`
	}{res.manifest, res.correct, res.attempted, res.failed, map[string]value{}, res.speed, res.raw, res.notes}
	for _, d := range res.defs {
		doc.Metrics[d.name] = value{res.values[d.name], d.unit}
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return fmt.Errorf("encode result: %w", err)
	}
	name := filepath.Join(o.outDir, fmt.Sprintf("%s-%s.json", kind, o.workload))
	if err := os.WriteFile(name, append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("write result: %w", err)
	}
	return nil
}
