package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"text/tabwriter"
)

// benchSpec is the part of BENCHMARK.json the comparison reads.
type benchSpec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &spec, nil
}

// readRecords collects the {"record": ...} lines of a captured set of
// runs; every other line (results, build output) is skipped.
func readRecords(path string) ([]*record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []*record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		line := sc.Bytes()
		if !strings.HasPrefix(string(line), `{"record":`) {
			continue
		}
		var wrap struct{ Record *record }
		if err := json.Unmarshal(line, &wrap); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		recs = append(recs, wrap.Record)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(recs) == 0 {
		return nil, fmt.Errorf("%s: no record lines", path)
	}
	return recs, nil
}

// compareMain compares two sets of runs, metric by metric and workload by
// workload: medians, quartiles, spreads, and the pairs the second set
// won. A bounded metric is unresolved where either set's spread exceeds
// its bound, unless every run of the second set beats every run of the
// first.
func compareMain(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("layerbench compare", flag.ContinueOnError)
	specPath := fs.String("bench", "BENCHMARK.json", "benchmark definition with bounds and directions")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return errors.New("compare needs two files of captured runs: old new")
	}
	spec, err := loadSpec(*specPath)
	if err != nil {
		return err
	}
	a, err := readRecords(fs.Arg(0))
	if err != nil {
		return err
	}
	b, err := readRecords(fs.Arg(1))
	if err != nil {
		return err
	}
	compare(out, spec, a, b)
	return nil
}

func compare(out io.Writer, spec *benchSpec, a, b []*record) {
	tw := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\told median [q1, q3]\tnew median [q1, q3]\tdelta\tnew won\tverdict")
	defs := append(append([]specMetric(nil), spec.EndToEnd...), spec.PerLayer...)
	for _, w := range workloadNames(a, b) {
		for _, d := range defs {
			va, vb := values(a, w, d.Name), values(b, w, d.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			won, pairs := pairsWon(va, vb, d.Better == "higher")
			ma, mb := median(va), median(vb)
			delta := "n/a"
			if ma != 0 {
				delta = fmt.Sprintf("%+.2f%%", 100*(mb-ma)/ma)
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%d/%d\t%s\n", w, d.Name,
				summary(va), summary(vb), delta, won, pairs, verdict(d, va, vb, won, pairs))
		}
	}
	tw.Flush()
}

func workloadNames(sets ...[]*record) []string {
	seen := map[string]bool{}
	var names []string
	for _, set := range sets {
		for _, r := range set {
			if !seen[r.Workload] {
				seen[r.Workload] = true
				names = append(names, r.Workload)
			}
		}
	}
	sort.Strings(names)
	return names
}

func values(recs []*record, workload, metric string) []float64 {
	var vs []float64
	for _, r := range recs {
		if v, ok := r.Metrics[metric]; ok && r.Workload == workload {
			vs = append(vs, v)
		}
	}
	return vs
}

func summary(vs []float64) string {
	q1, q3 := quartiles(vs)
	return fmt.Sprintf("%.6g [%.6g, %.6g]", median(vs), q1, q3)
}

// pairsWon counts the (old, new) pairs in which new is strictly better;
// ties count for neither side.
func pairsWon(old, cur []float64, higherBetter bool) (won, pairs int) {
	for _, o := range old {
		for _, c := range cur {
			pairs++
			if (higherBetter && c > o) || (!higherBetter && c < o) {
				won++
			}
		}
	}
	return won, pairs
}

func verdict(d specMetric, old, cur []float64, won, pairs int) string {
	if d.Bound == nil {
		return "-"
	}
	bound := *d.Bound
	if won == pairs {
		return "better (every pair)"
	}
	if spread(old) > bound || spread(cur) > bound {
		return fmt.Sprintf("unresolved (spread %.3f/%.3f > bound %.3f)", spread(old), spread(cur), bound)
	}
	ma, mc := median(old), median(cur)
	if ma == 0 {
		return "within"
	}
	worse := (mc - ma) / ma
	if d.Better == "higher" {
		worse = -worse
	}
	switch {
	case worse > bound:
		return fmt.Sprintf("worse by more than %.3f", bound)
	case worse < -bound:
		return fmt.Sprintf("better by more than %.3f", bound)
	}
	return "within"
}
