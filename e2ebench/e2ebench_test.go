package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
	"time"

	"slice/internal/sim"
)

// planSteps returns the first n steps a workload's lane plans.
func planSteps(t *testing.T, workload string, seed uint64, lane, n int) []step {
	t.Helper()
	w := workloads[workload].newWorker(seed, lane)
	var out, buf []step
	for len(out) < n {
		buf = w.next(buf)
		out = append(out, buf...)
	}
	return out[:n]
}

func TestSeedDeterminesOpSequence(t *testing.T) {
	for _, name := range workloadNames() {
		a := planSteps(t, name, 7, 0, 2000)
		b := planSteps(t, name, 7, 0, 2000)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: the same seed planned different op sequences", name)
		}
		if c := planSteps(t, name, 8, 0, 2000); reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 7 and 8 planned the same op sequence", name)
		}
		if c := planSteps(t, name, 7, 1, 2000); reflect.DeepEqual(a, c) {
			t.Errorf("%s: lanes 0 and 1 planned the same op sequence", name)
		}
	}
	if !reflect.DeepEqual(newPattern(3), newPattern(3)) || reflect.DeepEqual(newPattern(3)[:64], newPattern(4)[:64]) {
		t.Error("content pattern is not a function of the seed")
	}
}

func TestSfsSizesKeepTheSkew(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		sizes := sfsSizes(seed, 0)
		if len(sizes) != sfsFiles {
			t.Fatalf("seed %d: %d files, want %d", seed, len(sizes), sfsFiles)
		}
		small, smallBytes, total := 0, 0, 0
		for _, s := range sizes {
			total += s
			if s <= 64<<10 {
				small++
				smallBytes += s
			}
		}
		if small != 282 { // 94% of 300
			t.Errorf("seed %d: %d files at or below 64 KB, want 282", seed, small)
		}
		if share := float64(smallBytes) / float64(total); share < 0.2 || share > 0.3 {
			t.Errorf("seed %d: small files hold %.2f of the bytes, want about a quarter", seed, share)
		}
	}
}

func TestSfsMixIsSpecSfs(t *testing.T) {
	want := map[opKind]int{}
	for _, m := range sim.SfsOpMix {
		want[sfsFold[m.Name]] += int(math.Round(m.Frac * 100))
	}
	for _, seed := range []uint64{1, 2} {
		got := map[opKind]int{}
		for _, s := range planSteps(t, "sfs", seed, 0, 100*100) {
			got[s.Op]++
		}
		for op, n := range want {
			if got[op] != 100*n {
				t.Errorf("seed %d: %d %s calls in 10000, sim.SfsOpMix gives %d", seed, got[op], op, 100*n)
			}
		}
		if len(got) != len(want) {
			t.Errorf("seed %d: planned calls %v, want %v", seed, got, want)
		}
	}
}

func TestTailPercentile(t *testing.T) {
	seq := func(n int) []int64 {
		s := make([]int64, n)
		for i := range s {
			s[i] = int64(i + 1)
		}
		return s
	}
	for _, c := range []struct {
		n     int
		wantQ float64
		wantV int64
	}{
		{100000, 99.99, 99990},
		{10000, 99.9, 9990},
		{1000, 99, 990},
		{999, 95, 950},
		{100, 90, 90},
		{40, 75, 30},
		{20, 50, 10},
		{19, 0, 0},
		{0, 0, 0},
	} {
		q, v, n := tailPercentile(seq(c.n))
		if q != c.wantQ || v != c.wantV || n != c.n {
			t.Errorf("n=%d: got p%g=%d (n=%d), want p%g=%d", c.n, q, v, n, c.wantQ, c.wantV)
		}
	}
	if got := percentile(seq(1000), 50); got != 500 {
		t.Errorf("p50 of 1..1000 = %d, want 500", got)
	}
}

// benchmarkSpec is the part of BENCHMARK.json the output must match.
type benchmarkSpec struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchmarkSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// smokeRun runs a workload briefly with tracing, so both phases run.
func smokeRun(t *testing.T, workload string) *Result {
	t.Helper()
	res, err := Run(Options{
		Workload: workload, Seed: 11, Seconds: 2 * time.Second, Trace: true,
		TraceDir: t.TempDir(),
	})
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	return res
}

func TestSmokeRunsPassOutputChecks(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	spec := readSpec(t)
	for _, name := range workloadNames() {
		res := smokeRun(t, name)
		if !res.Correct() {
			t.Errorf("%s: output checks failed: %v", name, res.Checks)
		}
		if res.Untraced.rec.ops == 0 || res.Traced.rec.ops == 0 {
			t.Errorf("%s: no ops measured", name)
		}

		// The result lines carry exactly the metrics BENCHMARK.json
		// names, with its units, and survive a strict JSON round trip.
		untraced := *res
		untraced.Traced = nil
		for _, c := range []struct {
			r    *Result
			want []struct{ Name, Unit string }
		}{{&untraced, spec.EndToEnd}, {res, spec.PerLayer}} {
			line, err := c.r.line()
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if len(line.Metrics) != len(c.want) {
				t.Errorf("%s: %d metrics, BENCHMARK.json names %d", name, len(line.Metrics), len(c.want))
			}
			for _, m := range c.want {
				got, ok := line.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s: metric %s = %+v, want unit %s", name, m.Name, got, m.Unit)
				}
			}
			b, err := json.Marshal(line)
			if err != nil {
				t.Fatal(err)
			}
			back, err := parseLine(b)
			if err != nil || !reflect.DeepEqual(back, line) {
				t.Errorf("%s: result line did not round-trip: %v", name, err)
			}
		}
	}
}

func TestMetricNamesAreWellFormed(t *testing.T) {
	spec := readSpec(t)
	seen := map[string]bool{}
	for _, m := range append(spec.EndToEnd, spec.PerLayer...) {
		if !metricName.MatchString(m.Name) || len(m.Name) > 64 {
			t.Errorf("bad metric name %q", m.Name)
		}
		if seen[m.Name] {
			t.Errorf("metric %q named twice", m.Name)
		}
		seen[m.Name] = true
	}
	var r Result
	r.Untraced.seconds = 1
	r.Untraced.rec.samples[1] = []int64{1}
	r.Untraced.rec.readBytes, r.Untraced.rec.writeBytes = 1, 1
	always, extra := endToEnd(&r)
	for _, m := range append(always, extra...) {
		if !metricName.MatchString(m.Name) {
			t.Errorf("bad metric name %q", m.Name)
		}
	}
}

func TestParseLineRejectsUnknownKeys(t *testing.T) {
	if _, err := parseLine([]byte(`{"correct":true,"attempted":1,"failed":0,"metrics":{},"extra":1}`)); err == nil {
		t.Error("a result line with an unknown key parsed")
	}
	want := resultLine{Correct: true, Attempted: 3, Failed: 1, Metrics: map[string]metricValue{"ops_per_s": {Value: 1.5, Unit: "1/s"}}}
	b, _ := json.Marshal(want)
	got, err := parseLine(b)
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Errorf("round trip: got %+v, %v", got, err)
	}
}
