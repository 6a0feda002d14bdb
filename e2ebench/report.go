package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"regexp"
	"sort"
	"strings"
)

// metric is one named, unit-bearing number.
type metric struct {
	Name  string
	Unit  string
	Value float64
}

// metricName is the form every metric name takes.
var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// percentile returns the nearest-rank q-th percentile (q in (0,100]) of
// ascending samples, or 0 for none.
func percentile(sorted []int64, q float64) int64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := nearestRank(q, n)
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

// nearestRank is the 1-based rank of the q-th percentile of n samples.
// The epsilon keeps float error from pushing an exact rank up by one.
func nearestRank(q float64, n int) int {
	return int(math.Ceil(q/100*float64(n) - 1e-9))
}

// tailCandidates are the percentiles tailPercentile chooses from.
var tailCandidates = []float64{99.99, 99.9, 99, 95, 90, 75, 50}

// tailPercentile returns the highest candidate percentile that has at
// least ten samples beyond it, with its value and the sample count. With
// fewer than ten samples no percentile qualifies and q is 0.
func tailPercentile(sorted []int64) (q float64, v int64, n int) {
	n = len(sorted)
	for _, c := range tailCandidates {
		rank := nearestRank(c, n)
		if n-rank >= 10 {
			return c, sorted[rank-1], n
		}
	}
	return 0, 0, n
}

// mergeSorted merges two ascending slices.
func mergeSorted(a, b []int64) []int64 {
	out := make([]int64, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i] <= b[j] {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

const mb = 1e6 // MB/s counts decimal megabytes

// endToEnd derives the end-to-end metrics of the untraced phase. The
// first group is present on every workload, steady enough to bound, and
// is what the result line carries. The second is printed only: the 99th
// percentiles, whose run-to-run spread on a shared host exceeds any
// usable bound, and the metrics some workloads have no samples for
// (data calls on untar) or that read 0 on a healthy run.
func endToEnd(r *Result) (always, extra []metric) {
	p := &r.Untraced
	rec := &p.rec
	ops := float64(rec.ops)
	all := mergeSorted(rec.samples[0], rec.samples[1])
	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	add := func(dst *[]metric, name, unit string, v float64) { *dst = append(*dst, metric{name, unit, v}) }

	// Rates, per-op costs and medians are each window's, and the median
	// window is reported; the tails below need every sample of the phase.
	var rate, p50, metaP50, cpu, alloc []float64
	for i, w := range rec.wins {
		if i+1 >= len(p.marks) || w.ops == 0 {
			continue
		}
		m0, m1 := p.marks[i], p.marks[i+1]
		n := float64(w.ops)
		rate = append(rate, n/m1.at.Sub(m0.at).Seconds())
		p50 = append(p50, us(percentile(mergeSorted(w.samples[0], w.samples[1]), 50)))
		metaP50 = append(metaP50, us(percentile(w.samples[0], 50)))
		cpu = append(cpu, float64(m1.cpuNS-m0.cpuNS)/1e3/n)
		alloc = append(alloc, float64(m1.alloc-m0.alloc)/1024/n)
	}
	add(&always, "setup_s", "s", median(r.SetupS))
	add(&always, "ops_per_s", "1/s", median(rate))
	add(&always, "op_p50_us", "us", median(p50))
	add(&always, "meta_p50_us", "us", median(metaP50))
	add(&always, "cpu_us_per_op", "us", median(cpu))
	add(&always, "alloc_kb_per_op", "KiB", median(alloc))
	add(&always, "heap_inuse_mb", "MiB", float64(r.HeapInuse)/(1<<20))

	add(&extra, "op_p99_us", "us", us(percentile(all, 99)))
	add(&extra, "meta_p99_us", "us", us(percentile(rec.samples[0], 99)))
	if len(rec.samples[1]) > 0 {
		add(&extra, "data_p50_us", "us", us(percentile(rec.samples[1], 50)))
		add(&extra, "data_p99_us", "us", us(percentile(rec.samples[1], 99)))
	}
	if rec.readBytes > 0 {
		add(&extra, "read_mb_per_s", "MB/s", float64(rec.readBytes)/mb/p.seconds)
	}
	if rec.writeBytes > 0 {
		add(&extra, "write_mb_per_s", "MB/s", float64(rec.writeBytes)/mb/p.seconds)
	}
	add(&extra, "failed_frac", "ratio", ratio(float64(rec.failed+rec.mismatched), ops))
	return always, extra
}

// resultLine is the last line the benchmark prints.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// line builds the result line: the end-to-end metrics for an untraced
// run, the per-layer metrics for a traced one.
func (r *Result) line() (resultLine, error) {
	var ms []metric
	rec := &r.Untraced.rec
	attempted, failed := rec.ops, rec.failed+rec.mismatched
	if r.Traced != nil {
		ms = layerMetrics(r, r.Traced, float64(r.Untraced.rec.ops)/r.Untraced.seconds)
		attempted += r.Traced.rec.ops
		failed += r.Traced.rec.failed + r.Traced.rec.mismatched
	} else {
		ms, _ = endToEnd(r)
	}
	out := resultLine{Correct: r.Correct(), Attempted: attempted, Failed: failed, Metrics: make(map[string]metricValue)}
	for _, m := range ms {
		if !metricName.MatchString(m.Name) {
			return out, fmt.Errorf("bad metric name %q", m.Name)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return out, fmt.Errorf("metric %s is %v", m.Name, m.Value)
		}
		out.Metrics[m.Name] = metricValue{Value: m.Value, Unit: m.Unit}
	}
	if attempted < 1 {
		return out, fmt.Errorf("no ops completed in the measured time")
	}
	return out, nil
}

// writeText prints the human-readable report that precedes the result
// line: every end-to-end metric, sample counts and supported tails, the
// output checks, and for a traced run the per-layer metrics and the
// self-time table.
func (r *Result) writeText(w *bufio.Writer) {
	rec := &r.Untraced.rec
	fmt.Fprintf(w, "# e2ebench workload=%s transport=%s lanes=%d seed=%d measured=%.2fs setups=%s\n",
		r.Workload, r.Transport, r.Lanes, r.Seed, r.Untraced.seconds, fmtFloats(r.SetupS))
	always, extra := endToEnd(r)
	fmt.Fprintf(w, "# end-to-end (untraced):\n")
	for _, m := range append(always, extra...) {
		fmt.Fprintf(w, "#   %-18s %14.4f %s\n", m.Name, m.Value, m.Unit)
	}
	all := mergeSorted(rec.samples[0], rec.samples[1])
	for _, c := range []struct {
		name string
		s    []int64
	}{{"op", all}, {"meta", rec.samples[0]}, {"data", rec.samples[1]}} {
		q, v, n := tailPercentile(c.s)
		if q == 0 {
			fmt.Fprintf(w, "#   %-5s n=%d: too few samples for a tail percentile\n", c.name, n)
			continue
		}
		fmt.Fprintf(w, "#   %-5s n=%d p50=%.2fus highest supported tail p%g=%.2fus\n",
			c.name, n, float64(percentile(c.s, 50))/1e3, q, float64(v)/1e3)
	}
	fmt.Fprintf(w, "#   ops=%d failed=%d mismatched=%d\n", rec.ops, rec.failed, rec.mismatched)
	fmt.Fprintf(w, "#   ops/s by window:")
	for i, win := range rec.wins {
		if i+1 < len(r.Untraced.marks) {
			fmt.Fprintf(w, " %.0f", float64(win.ops)/r.Untraced.marks[i+1].at.Sub(r.Untraced.marks[i].at).Seconds())
		}
	}
	fmt.Fprintln(w)
	if r.Correct() {
		fmt.Fprintf(w, "# output checks: all passed\n")
	}
	for _, e := range r.Errors {
		fmt.Fprintf(w, "# %s\n", e)
	}
	for _, c := range r.Checks {
		fmt.Fprintf(w, "# output check FAILED: %s\n", c)
	}
	if r.Traced != nil {
		t := r.Traced
		fmt.Fprintf(w, "# per-layer (traced phase, %.2fs, %d ops):\n", t.seconds, t.rec.ops)
		for _, m := range layerMetrics(r, t, float64(rec.ops)/r.Untraced.seconds) {
			fmt.Fprintf(w, "#   %-34s %14.4f %s\n", m.Name, m.Value, m.Unit)
		}
		t.traceStats.writeTable(w)
	}
}

func fmtFloats(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.3g", x)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// parseLine decodes a result line strictly: unknown keys are an error.
func parseLine(b []byte) (resultLine, error) {
	var out resultLine
	dec := json.NewDecoder(strings.NewReader(string(b)))
	dec.DisallowUnknownFields()
	err := dec.Decode(&out)
	return out, err
}
