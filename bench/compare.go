package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// Verdicts of a comparison, per workload and end-to-end metric.
const (
	verdictBetter     = "better"
	verdictSame       = "same"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

func loadResults(path string) (*resultsFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf resultsFile
	if err := json.Unmarshal(data, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rf, nil
}

// quartiles returns the first quartile, median and third quartile.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0, 0, 0
	}
	return quantileSorted(s, 0.25), quantileSorted(s, 0.5), quantileSorted(s, 0.75)
}

// judge compares side b with side a on one metric. worsening is how far
// b's median is on the wrong side of a's, as a share of a's median. The
// bound decides, unless the runs of either side scatter more than the
// bound: then only a clean separation of every run counts.
func judge(a, b []float64, d metricDef) string {
	q1a, ma, q3a := quartiles(a)
	q1b, mb, q3b := quartiles(b)
	if ma == 0 {
		return verdictUnresolved
	}
	sign := 1.0 // lower is better: growing is worsening
	if d.Better == "higher" {
		sign = -1
	}
	worsening := sign * (mb - ma) / math.Abs(ma)
	spread := math.Max(q3a-q1a, q3b-q1b) / math.Abs(ma)
	if spread > d.Bound {
		allBetter, allWorse := true, true
		for _, x := range a {
			for _, y := range b {
				if sign*(y-x) >= 0 {
					allBetter = false
				}
				if sign*(y-x) <= 0 {
					allWorse = false
				}
			}
		}
		switch {
		case allBetter:
			return verdictBetter
		case allWorse && worsening > d.Bound:
			return verdictWorse
		}
		return verdictUnresolved
	}
	switch {
	case worsening > d.Bound:
		return verdictWorse
	case worsening < -d.Bound:
		return verdictBetter
	}
	return verdictSame
}

// compareFiles prints, per workload and end-to-end metric, both sides'
// medians and quartiles and the verdict by BENCHMARK.json's bound, with
// one summary row per workload. It reports whether anything got worse:
// a "worse" verdict, or any fall of delivered_frac.
func compareFiles(root, pathA, pathB string, w io.Writer) (bool, error) {
	bf, err := loadBenchmarkFile(root)
	if err != nil {
		return false, err
	}
	a, err := loadResults(pathA)
	if err != nil {
		return false, err
	}
	b, err := loadResults(pathB)
	if err != nil {
		return false, err
	}
	anyWorse := false
	fmt.Fprintf(w, "a = %s (%s)\nb = %s (%s)\n", pathA, a.When, pathB, b.When)
	fmt.Fprintf(w, "%-22s %-16s %36s %36s %9s  %s\n", "workload", "metric", "a: median [q1, q3]", "b: median [q1, q3]", "b vs a", "verdict")
	for _, wl := range bf.Workloads {
		wa, wb := a.Workloads[wl.Name], b.Workloads[wl.Name]
		if wa == nil || wb == nil || len(wa.Runs) == 0 || len(wb.Runs) == 0 {
			fmt.Fprintf(w, "%-22s missing from one side\n", wl.Name)
			anyWorse = true
			continue
		}
		counts := map[string]int{}
		for _, d := range bf.EndToEnd {
			ca, cb := wa.column(d.Name), wb.column(d.Name)
			verdict := judge(ca, cb, d)
			q1a, ma, q3a := quartiles(ca)
			q1b, mb, q3b := quartiles(cb)
			if d.Name == "delivered_frac" && mb < ma {
				verdict = verdictWorse
			}
			counts[verdict]++
			anyWorse = anyWorse || verdict == verdictWorse
			change := 0.0
			if ma != 0 {
				change = 100 * (mb - ma) / math.Abs(ma)
			}
			fmt.Fprintf(w, "%-22s %-16s %12.6g [%9.4g, %9.4g] %12.6g [%9.4g, %9.4g] %+8.2f%%  %s\n",
				wl.Name, d.Name, ma, q1a, q3a, mb, q1b, q3b, change, verdict)
		}
		fmt.Fprintf(w, "%-22s => %d same, %d better, %d worse, %d unresolved (%d vs %d runs)\n",
			wl.Name, counts[verdictSame], counts[verdictBetter], counts[verdictWorse], counts[verdictUnresolved], len(wa.Runs), len(wb.Runs))
	}
	return anyWorse, nil
}
