package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// compareFiles reads the -out reports of a parent and a change and
// prints, for each workload and end-to-end metric, both sides' median
// and quartiles, how many run pairs the change won, and a verdict by the
// benchmark's bounds (see judge). Traced runs are ignored.
func compareFiles(w io.Writer, parentPath, changePath string) error {
	parent, err := readReports(parentPath)
	if err != nil {
		return err
	}
	change, err := readReports(changePath)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-17s %-15s %32s %32s %7s %s\n", "workload", "metric", "parent median [q1 q3]", "change median [q1 q3]", "wins", "verdict")
	for _, wl := range workloads {
		a, b := parent[wl.name], change[wl.name]
		if len(a) == 0 || len(b) == 0 {
			continue
		}
		for _, d := range endToEnd {
			av, bv := values(a, d.Name), values(b, d.Name)
			verdict, wins, pairs := judge(d, av, bv)
			fmt.Fprintf(w, "%-17s %-15s %32s %32s %3d/%-3d %s\n", wl.name, d.Name,
				summary(av), summary(bv), wins, pairs, verdict)
		}
	}
	return nil
}

// readReports loads untraced reports by workload, in file order.
func readReports(path string) (map[string][]*report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string][]*report{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for line := 1; sc.Scan(); line++ {
		var r report
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if !r.Trace {
			out[r.Workload] = append(out[r.Workload], &r)
		}
	}
	return out, sc.Err()
}

func values(rs []*report, name string) []float64 {
	out := make([]float64, 0, len(rs))
	for _, r := range rs {
		out = append(out, r.Metrics[name].Value)
	}
	return out
}

func summary(xs []float64) string {
	q1, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g %.4g]", median(xs), q1, q3)
}

// judge applies the benchmark's rules to one metric on one workload.
// Runs are paired in file order. The change improved when it wins at
// least nine tenths of the pairs and its median is better than the
// parent's by more than the parent's interquartile range. Otherwise,
// where the parent's own spread exceeds the bound the result is
// unresolved; a median worse than the parent's by more than the bound is
// worse; anything else is unchanged.
func judge(d metricDef, parent, change []float64) (verdict string, wins, pairs int) {
	sign := 1.0 // gain is positive when the change is better
	if d.Better == "lower" {
		sign = -1
	}
	pairs = min(len(parent), len(change))
	for i := 0; i < pairs; i++ {
		if sign*(change[i]-parent[i]) > 0 {
			wins++
		}
	}
	pm := median(parent)
	gain := sign * (median(change) - pm)
	q1, q3 := quartiles(parent)
	switch {
	case 10*wins >= 9*pairs && gain > q3-q1:
		return "improved", wins, pairs
	case (q3-q1)/math.Abs(pm) > d.Bound:
		return "unresolved", wins, pairs
	case -gain/math.Abs(pm) > d.Bound:
		return "worse", wins, pairs
	}
	return "unchanged", wins, pairs
}
