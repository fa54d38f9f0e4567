// Command perfbench is ncq's end-to-end benchmark. It boots ncq the
// way `ncqd -data-dir` does — durable recovery from snapshot files
// written beforehand — serves it over loopback TCP and drives it from
// this one process with at most two senders, checking every answer.
//
//	perfbench --workload cold-mix --seed 7 --seconds 24 --trace 0
//
// The last line of standard output is one JSON object with the
// end-to-end metrics (--trace 0) or the per-layer metrics of a traced
// replay of the same seeded requests (--trace 1). Run it from the root
// of an ncq checkout through run.sh, which builds it first.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "seed of the generated requests and documents")
	seconds := fs.Int("seconds", 24, "measured seconds per run")
	trace := fs.Int("trace", 0, "1 = traced replay reporting per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds >= 1 and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	if _, err := os.Stat("go.mod"); err != nil {
		fmt.Fprintln(stderr, "perfbench: run from the root of an ncq checkout")
		return 2
	}
	work := filepath.Join(".bench_build", "work", fmt.Sprintf("%s-%d-%d", w.name, *seed, os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(work)
	b := &bench{w: w, seed: *seed, seconds: *seconds, traced: *trace == 1, work: work, out: stdout, log: stderr}
	res, err := b.run(context.Background())
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(stdout, "  %-30s %14.4f %s\n", n, m.Value, m.Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench: encode result:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}
