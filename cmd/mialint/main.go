// Command mialint runs the repository's domain-specific static-analysis
// suite (internal/lint) over a Go module: seven analyzers that enforce the
// determinism, hot-path-allocation, context-flow, bounded-input, lock-safety,
// handler-flow, and goroutine-join invariants the runtime test suites can
// only check after a regression has landed.
//
// Usage:
//
//	mialint ./...
//	mialint -analyzers determinism,ctxflow ./internal/...
//	mialint -C path/to/module -json ./...
//	mialint -jobs 8 -gha ./...
//
// Analysis parallelizes across packages with -jobs (0 means one worker per
// CPU); diagnostic output is byte-identical at any worker count. -gha
// renders diagnostics as GitHub Actions workflow annotations so findings
// surface inline on the pull-request diff.
//
// Exit status is 0 when the tree is clean, 1 when any diagnostic was
// reported, and 2 when the module could not be loaded or the flags were
// invalid — the same convention as go vet, so CI treats diagnostics and
// breakage differently.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"

	"github.com/mia-rt/mia/internal/lint"
	"github.com/mia-rt/mia/internal/pool"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mialint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		dir      = fs.String("C", ".", "directory of the module to lint")
		names    = fs.String("analyzers", "", "comma-separated subset of analyzers to run (default: all)")
		asJSON   = fs.Bool("json", false, "emit diagnostics as a JSON array instead of vet-style lines")
		asGHA    = fs.Bool("gha", false, "emit diagnostics as GitHub Actions ::error annotations")
		jobs     = fs.Int("jobs", 0, "packages analyzed concurrently (0 = one per CPU, 1 = sequential)")
		listOnly = fs.Bool("list", false, "list the available analyzers and exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *asJSON && *asGHA {
		fmt.Fprintln(stderr, "mialint: -json and -gha are mutually exclusive")
		return 2
	}

	analyzers := lint.All()
	if *listOnly {
		for _, a := range analyzers {
			fmt.Fprintf(stdout, "%-14s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	if *names != "" {
		var want []string
		for _, n := range strings.Split(*names, ",") {
			if n = strings.TrimSpace(n); n != "" {
				want = append(want, n)
			}
		}
		sort.Strings(want)
		if analyzers = lint.ByName(want); analyzers == nil {
			fmt.Fprintf(stderr, "mialint: unknown analyzer in -analyzers=%s (run mialint -list)\n", *names)
			return 2
		}
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	// Loading and type-checking the module is the expensive step; honor
	// cancellation before starting and between load and analysis so an
	// interrupted CI job dies fast.
	if err := ctx.Err(); err != nil {
		fmt.Fprintln(stderr, "mialint:", err)
		return 2
	}
	pkgs, err := lint.Load(*dir, patterns...)
	if err != nil {
		fmt.Fprintln(stderr, "mialint:", err)
		return 2
	}
	if err := ctx.Err(); err != nil {
		fmt.Fprintln(stderr, "mialint:", err)
		return 2
	}
	diags, err := lint.Run(ctx, pool.Jobs(*jobs), pkgs, analyzers)
	if err != nil {
		fmt.Fprintln(stderr, "mialint:", err)
		return 2
	}

	switch {
	case *asGHA:
		// GitHub Actions workflow-command syntax: message properties are
		// comma/colon-delimited, so the file path (the only property we emit
		// that can contain delimiters) is percent-escaped per the runner's
		// rules; the message itself only needs %, CR, and LF escaped.
		for _, d := range diags {
			fmt.Fprintf(stdout, "::error file=%s,line=%d,col=%d,title=mialint %s::%s\n",
				ghaEscapeProperty(d.Pos.Filename), d.Pos.Line, d.Pos.Column, d.Analyzer, ghaEscapeData(d.Message))
		}
	case *asJSON:
		type jsonDiag struct {
			File     string `json:"file"`
			Line     int    `json:"line"`
			Column   int    `json:"column"`
			Analyzer string `json:"analyzer"`
			Message  string `json:"message"`
		}
		out := make([]jsonDiag, 0, len(diags))
		for _, d := range diags {
			out = append(out, jsonDiag{d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message})
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintln(stderr, "mialint:", err)
			return 2
		}
	default:
		for _, d := range diags {
			fmt.Fprintln(stdout, d)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "mialint: %d diagnostic(s) in %d package(s)\n", len(diags), len(pkgs))
		return 1
	}
	return 0
}

// ghaEscapeProperty escapes a workflow-command property value (the file
// path): %, CR, LF, and the property delimiters : and , per the Actions
// runner's escapeProperty.
func ghaEscapeProperty(s string) string {
	r := strings.NewReplacer("%", "%25", "\r", "%0D", "\n", "%0A", ":", "%3A", ",", "%2C")
	return r.Replace(s)
}

// ghaEscapeData escapes a workflow-command message: %, CR, and LF per the
// Actions runner's escapeData, so multi-line messages stay one annotation.
func ghaEscapeData(s string) string {
	r := strings.NewReplacer("%", "%25", "\r", "%0D", "\n", "%0A")
	return r.Replace(s)
}
