package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
)

// stamp identifies the machine shape and the code a result came from.
// Results from different shapes are not comparable: a 2-core box and a
// 16-core one serve the same fleet very differently.
type stamp struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	Commit     string `json:"commit"` // git HEAD when the checkout has one
	Source     string `json:"source"` // digest of the module's Go sources and go.mod files
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
}

func machineStamp(workload string, seed int64) (stamp, error) {
	src, err := sourceDigest(".")
	if err != nil {
		return stamp{}, err
	}
	return stamp{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: gitHead("."), Source: src, Workload: workload, Seed: seed,
	}, nil
}

// sameShape reports why two stamps' machines differ, or "" when they match.
func (s stamp) sameShape(o stamp) string {
	var diffs []string
	if s.NumCPU != o.NumCPU {
		diffs = append(diffs, fmt.Sprintf("nproc %d vs %d", s.NumCPU, o.NumCPU))
	}
	if s.GOMAXPROCS != o.GOMAXPROCS {
		diffs = append(diffs, fmt.Sprintf("GOMAXPROCS %d vs %d", s.GOMAXPROCS, o.GOMAXPROCS))
	}
	if s.GoVersion != o.GoVersion {
		diffs = append(diffs, fmt.Sprintf("Go %s vs %s", s.GoVersion, o.GoVersion))
	}
	return strings.Join(diffs, ", ")
}

// gitHead resolves HEAD from a .git directory without running git; a
// checkout without one (an exported tree) reports "none".
func gitHead(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "none"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", filepath.FromSlash(ref))); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	if err != nil {
		return "none"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
			return sha
		}
	}
	return "none"
}

// sourceDigest hashes every .go file and go.mod under root (skipping
// dot-directories such as .git and .bench_build), so two results can be
// tied to the exact code they measured even without git.
func sourceDigest(root string) (string, error) {
	var files []string
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(p, ".go") || d.Name() == "go.mod" {
			files = append(files, p)
		}
		return nil
	})
	if err != nil {
		return "", err
	}
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		b, err := os.ReadFile(p)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(p), len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

// peakRSSMB is the process's peak resident set (ru_maxrss, the kernel's
// VmHWM) in MB; the whole fleet and its clients live in this process.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// runtimeDelta is the Go runtime's view of a traffic window: CPU spent in
// GC against all CPU, heap bytes and objects allocated.
type runtimeDelta struct {
	gcCPU, totalCPU float64
	allocBytes      uint64
	mallocs         uint64
}

var runtimeSamples = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
}

// readRuntime forces a collection first: the runtime only publishes its
// CPU classes at the end of a GC cycle, so without one a window with few
// collections would read stale totals. The delta of two readings includes
// the forced collection at the window's end.
func readRuntime() runtimeDelta {
	runtime.GC()
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, n := range runtimeSamples {
		s[i].Name = n
	}
	metrics.Read(s)
	return runtimeDelta{
		gcCPU: s[0].Value.Float64(), totalCPU: s[1].Value.Float64(),
		allocBytes: s[2].Value.Uint64(), mallocs: s[3].Value.Uint64(),
	}
}

func (a runtimeDelta) sub(b runtimeDelta) runtimeDelta {
	return runtimeDelta{a.gcCPU - b.gcCPU, a.totalCPU - b.totalCPU, a.allocBytes - b.allocBytes, a.mallocs - b.mallocs}
}

func mallocs() uint64 { return readRuntime().mallocs }

// savedOutput is one benchmark invocation's stdout, as saved by a caller.
type savedOutput struct {
	stamp   stamp
	metrics map[string]jsonMetric
}

func readOutput(path string) (*savedOutput, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := &savedOutput{}
	var last []byte
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	for sc.Scan() {
		line := sc.Bytes()
		if rest, ok := bytes.CutPrefix(line, []byte("stamp ")); ok {
			if err := json.Unmarshal(rest, &out.stamp); err != nil {
				return nil, fmt.Errorf("%s: bad stamp: %w", path, err)
			}
		}
		if len(bytes.TrimSpace(line)) > 0 {
			last = append(last[:0], line...)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	var final struct {
		Metrics map[string]jsonMetric `json:"metrics"`
	}
	if err := json.Unmarshal(last, &final); err != nil {
		return nil, fmt.Errorf("%s: last line is not a result: %w", path, err)
	}
	out.metrics = final.Metrics
	return out, nil
}

// compareOutputs prints new/old ratios metric by metric — or, when the two
// results come from different machine shapes, a warning and no comparison.
func compareOutputs(oldPath, newPath string, w io.Writer) (int, error) {
	a, err := readOutput(oldPath)
	if err != nil {
		return 1, err
	}
	b, err := readOutput(newPath)
	if err != nil {
		return 1, err
	}
	if d := a.stamp.sameShape(b.stamp); d != "" {
		fmt.Fprintf(w, "warning: not comparing results from different machine shapes (%s)\n", d)
		return 0, nil
	}
	if a.stamp.Workload != b.stamp.Workload {
		fmt.Fprintf(w, "warning: comparing workload %s with %s\n", a.stamp.Workload, b.stamp.Workload)
	}
	names := make([]string, 0, len(a.metrics))
	for n := range a.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		was := a.metrics[n]
		now, ok := b.metrics[n]
		if !ok {
			fmt.Fprintf(w, "%-28s only in %s\n", n, oldPath)
			continue
		}
		fmt.Fprintf(w, "%-28s %12.6g -> %12.6g %-6s (x%.3f)\n", n, was.Value, now.Value, now.Unit, now.Value/was.Value)
	}
	return 0, nil
}
