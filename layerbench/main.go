// Command layerbench is the repository's end-to-end benchmark. It colors
// seeded workload graphs through the public pipeline calls (DCG1 load,
// permuted network, coloring, legality check), times them from outside,
// certifies every coloring, and prints one JSON result line.
//
//	layerbench --workload forest-a8 --seed 1 --seconds 30 --trace 0
//	layerbench compare [-bench BENCHMARK.json] old.jsonl new.jsonl
//
// See README.md for the workloads, the metrics and the layer map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
)

func main() {
	args := os.Args[1:]
	sub := ""
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		sub, args = args[0], args[1:]
	}
	var err error
	switch sub {
	case "":
		err = runMain(args, os.Stdout)
	case "compare":
		err = compareMain(args, os.Stdout)
	default:
		err = fmt.Errorf("unknown subcommand %q", sub)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "layerbench:", err)
		os.Exit(1)
	}
}

// runMain measures one workload and prints the run's record line
// ({"record": ...}) followed by the result line.
func runMain(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("layerbench", flag.ContinueOnError)
	cfg := runConfig{minReps: 3}
	fs.StringVar(&cfg.workload, "workload", "", "workload name (see README.md)")
	fs.Int64Var(&cfg.seed, "seed", 1, "input seed")
	fs.Float64Var(&cfg.seconds, "seconds", 30, "measuring time in seconds")
	trace := fs.Int("trace", 0, "1 for a traced run reporting per-layer metrics")
	fs.IntVar(&cfg.n, "n", 0, "vertex count (0 = the workload's default)")
	fs.StringVar(&cfg.dir, "dir", ".bench_build/work", "scratch directory for the generated graph")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	}
	cfg.trace = *trace == 1
	rec, err := runBench(cfg)
	if err != nil {
		return err
	}
	for _, f := range rec.Failures {
		fmt.Fprintln(os.Stderr, "layerbench: failed check:", f)
	}
	return writeRun(out, rec)
}

func writeRun(out io.Writer, rec *record) error {
	line, err := json.Marshal(map[string]*record{"record": rec})
	if err != nil {
		return err
	}
	res, err := json.Marshal(rec.Result)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n%s\n", line, res)
	return err
}
