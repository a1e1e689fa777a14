package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
	"time"
)

// tiny returns a copy of w small enough for a unit test: a handful of
// files and members, short bodies, and (for the cache-miss workload) a
// cache budget the tiny corpus still overflows twice.
func tiny(w *workload) *workload {
	t := *w
	t.files = 3
	t.members = make([]int, len(w.members))
	for i, m := range w.members {
		t.members[i] = min(m, 17)
	}
	if t.bulkSize > 0 {
		t.bulkSize = 64 << 10
	}
	if t.rate > 0 {
		t.rate = min(t.rate, 50)
	}
	if t.cacheBytes > 0 {
		t.cacheBytes = 1 << 10
	}
	return &t
}

func tinyOptions(trace bool) options {
	return options{seed: 7, seconds: 0.4, trace: trace, warmup: 100 * time.Millisecond}
}

// benchmarkSpec reads the metric lists from the repository's BENCHMARK.json.
func benchmarkSpec(t *testing.T) (endToEnd, perLayer map[string]string, names []string) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	return endToEnd, perLayer, names
}

func TestWorkloadsMatchSpec(t *testing.T) {
	_, _, names := benchmarkSpec(t)
	var have []string
	for _, w := range workloads {
		have = append(have, w.name)
	}
	sort.Strings(names)
	sort.Strings(have)
	if len(names) != len(have) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark has %v", names, have)
	}
	for i := range names {
		if names[i] != have[i] {
			t.Fatalf("BENCHMARK.json workloads %v, benchmark has %v", names, have)
		}
	}
}

// printedEndToEnd is every end-to-end metric an untraced run prints,
// whether or not BENCHMARK.json bounds it.
var printedEndToEnd = []string{
	"setup_s", "ops_per_s", "read_MBps", "write_MBps", "read_p50_ms", "read_tail_ms",
	"write_p50_ms", "write_tail_ms", "admin_p50_ms", "admin_tail_ms", "error_rate",
	"cpu_ms_per_op", "alloc_KB_per_op", "stored_bytes_per_user_byte",
}

// TestTinyRunsEmitEveryMetric runs every workload at tiny scale, untraced
// and traced, and requires exactly the metrics BENCHMARK.json names, with
// their units, and a correct outcome.
func TestTinyRunsEmitEveryMetric(t *testing.T) {
	endToEnd, perLayer, _ := benchmarkSpec(t)
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			want := endToEnd
			if trace {
				want = perLayer
			}
			out, err := execute(tiny(w), tinyOptions(trace))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !out.Correct || out.Failed != 0 || out.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d report=%v",
					w.name, trace, out.Correct, out.Failed, out.Attempted, out.report)
			}
			for name, unit := range want {
				got, ok := out.Metrics[name]
				if !ok {
					t.Errorf("%s trace=%v: metric %s missing", w.name, trace, name)
				} else if got.Unit != unit {
					t.Errorf("%s trace=%v: metric %s unit %q, want %q", w.name, trace, name, got.Unit, unit)
				}
			}
			for name := range out.Metrics {
				if _, ok := want[name]; !ok {
					t.Errorf("%s trace=%v: metric %s is not in BENCHMARK.json", w.name, trace, name)
				}
			}
			if !trace {
				for _, name := range printedEndToEnd {
					_, gated := out.Metrics[name]
					if _, ok := out.reported[name]; !ok && !gated {
						t.Errorf("%s: end-to-end metric %s not printed", w.name, name)
					}
				}
			}
			if trace {
				checkSplits(t, w.name, out)
			}
		}
	}
}

// checkSplits requires the traced split of every op class to add up to
// its request time.
func checkSplits(t *testing.T, name string, out *outcome) {
	t.Helper()
	splits, ok := out.report["split_ns_totals"].(map[string]any)
	if !ok {
		t.Fatalf("%s: no split in report", name)
	}
	for class, v := range splits {
		sp := v.(split)
		if sp.Store+sp.Conn+sp.Self+sp.Unattributed != sp.Request {
			t.Errorf("%s %s: split %+v does not add up to the request time", name, class, sp)
		}
		if sp.Requests > 0 && sp.Request <= 0 {
			t.Errorf("%s %s: %d requests but no request time", name, class, sp.Requests)
		}
	}
}

// TestCorruptedHashFailsRun checks that the oracle's content check bites:
// with the corpus's expected hashes corrupted, the run must report
// incorrect (through the GET checks and the restart read-back).
func TestCorruptedHashFailsRun(t *testing.T) {
	for _, name := range []string{"bulk-transfer", "protected-share"} {
		opt := tinyOptions(false)
		opt.afterSetup = func(s *setup) {
			for _, ks := range s.o.keys {
				ks.hash[0] ^= 0xff
			}
		}
		out, err := execute(tiny(findWorkload(name)), opt)
		if err != nil {
			t.Fatal(err)
		}
		if out.Correct {
			t.Errorf("%s: run with corrupted expected hashes reported correct", name)
		}
	}
}

func TestAttributeSplitAddsUp(t *testing.T) {
	reqs := []request{
		{class: classRead, start: 0, end: 100},
		{class: classWrite, start: 50, end: 200},
		{class: classAdmin, start: 300, end: 400},
	}
	spans := []span{
		{kind: spanStore, start: 10, end: 30},          // request 0 only
		{kind: spanConn, sub: 1, start: 20, end: 40},   // request 0 only, overlaps the store span
		{kind: spanStore, start: 60, end: 90},          // requests 0 and 1: ambiguous
		{kind: spanStore, start: 120, end: 150},        // request 1 only
		{kind: spanConn, sub: 0, start: 210, end: 320}, // idle read: clipped to start at 300
		{kind: spanStore, start: 500, end: 600},        // no request
	}
	at := attribute(reqs, spans)
	if at.children != 5 || at.ambiguous != 1 {
		t.Fatalf("children=%d ambiguous=%d, want 5 and 1", at.children, at.ambiguous)
	}
	want := [numClasses]split{
		classRead:  {Requests: 1, Request: 100, Store: 20, Conn: 10, Unattributed: 30, Self: 40},
		classWrite: {Requests: 1, Request: 150, Store: 30, Unattributed: 30, Self: 90},
		classAdmin: {Requests: 1, Request: 100, Conn: 20, Self: 80},
	}
	if at.byClass != want {
		t.Fatalf("split %+v, want %+v", at.byClass, want)
	}
}

func TestTailPercentile(t *testing.T) {
	lat := make([]int64, 100)
	for i := range lat {
		lat[i] = int64(i+1) * 1e6
	}
	tl := latencyStats(lat)
	if tl.Percentile != 90 || tl.Tailms != 90 || tl.P50ms != 50 || tl.N != 100 || tl.Groups != 1 {
		t.Fatalf("got %+v", tl)
	}
	// Three groups of 100: a stall in one group leaves the median alone.
	lat = nil
	for g := range 3 {
		for i := range 100 {
			v := int64(i+1) * 1e6
			if g == 1 && i >= 80 {
				v *= 100
			}
			lat = append(lat, v)
		}
	}
	tl = latencyStats(lat)
	if tl.Groups != 3 || tl.Tailms != 90 || tl.Percentile != 90 {
		t.Fatalf("got %+v", tl)
	}
}

func TestOpsPerSecondGroups(t *testing.T) {
	// 200 back-to-back 1 ms requests, four groups of 50 at 1000/s; a
	// 100 ms stall inside the second group moves that group only.
	var samples []sample
	var now int64
	for i := range 200 {
		if i == 70 {
			now += 100e6
		}
		samples = append(samples, sample{start: now, end: now + 1e6})
		now += 1e6
	}
	if got := opsPerSecond(samples); got != 1000 {
		t.Fatalf("ops/s %v, want 1000", got)
	}
	// A program that is slower everywhere moves it.
	for i := range samples {
		samples[i].start *= 2
		samples[i].end *= 2
	}
	if got := opsPerSecond(samples); got != 500 {
		t.Fatalf("ops/s %v, want 500", got)
	}
}
