// Command e2ebench is the repository's end-to-end benchmark. It builds a
// live in-process Slice ensemble, drives it through the public client
// API with closed-loop lanes, times every client call itself, checks
// every result, and prints one JSON result line last. README.md in this
// directory describes the workloads and metrics.
//
// Usage (from the repository root):
//
//	bash e2ebench/run.sh --workload untar|sfs|bulk --seed N --seconds S --trace 0|1
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"
)

// traceDir is where a traced run writes its spans, under the build
// directory the checkout ignores.
const traceDir = ".bench_build/e2ebench/traces"

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload: untar, sfs or bulk")
	seed := fs.Uint64("seed", 1, "seed every input is generated from")
	seconds := fs.Float64("seconds", 10, "measured seconds")
	trace := fs.Int("trace", 0, "1: traced run reporting per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "e2ebench: --trace must be 0 or 1")
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(stderr, "e2ebench: --seconds must be positive")
		return 2
	}
	res, err := Run(Options{
		Workload: *workload,
		Seed:     *seed,
		Seconds:  time.Duration(*seconds * float64(time.Second)),
		Trace:    *trace == 1,
		TraceDir: traceDir,
	})
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	line, err := res.line()
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	out, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	w := bufio.NewWriter(stdout)
	res.writeText(w)
	fmt.Fprintln(w, string(out))
	if err := w.Flush(); err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	if !line.Correct {
		return 1
	}
	return 0
}
