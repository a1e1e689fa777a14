// Command perfbench is the repository's benchmark: it runs one of three
// workloads modelled on the paper's evaluation against a full in-process
// SeGShare deployment (loopback, enclave TLS, HTTP, every binary default
// on), checks every response against an oracle, and prints the
// end-to-end metrics, or with -trace 1 the per-layer metrics, as the last
// line of standard output.
//
//	bash perfbench/run.sh --workload team-share --seed 1 --seconds 10 --trace 0
//
// Workloads (see BENCHMARK.json for why each exists):
//
//	bulk-transfer    Fig. 3: 8 MiB PUT/GET, closed loop, one connection
//	team-share       Fig. 4 + E10 mix: open loop, small files, admin ops
//	protected-share  Fig. 5: write-heavy closed loop, every extension
package main

import (
	"crypto/sha256"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"segshare"
)

const numSetups = 5

type options struct {
	seed    uint64
	seconds float64
	trace   bool
	warmup  time.Duration
	// afterSetup, when set, sees the deployment before traffic starts
	// (tests use it to corrupt the oracle).
	afterSetup func(*setup)
}

// outcome is one run's result line plus the report printed above it.
type outcome struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`

	// reported are printed by name with their unit like Metrics but left
	// out of the result line: their run-to-run spread on a shared 2-vCPU
	// host is wider than any bound BENCHMARK.json may set.
	reported metrics
	report   map[string]any
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: bulk-transfer | team-share | protected-share")
	seed := fs.Uint64("seed", 1, "seed every input is drawn from")
	seconds := fs.Float64("seconds", 10, "length of the measured window")
	trace := fs.Int("trace", 0, "1: traced run reporting per-layer metrics instead of end-to-end ones")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w := findWorkload(*name)
	if w == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload (one of %s), -seconds > 0 and -trace 0|1\n", workloadNames())
		return 2
	}
	opt := options{seed: *seed, seconds: *seconds, trace: *trace == 1, warmup: time.Second}
	out, err := execute(w, opt)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	printOutcome(stdout, out)
	return 0
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// execute sets the workload up numSetups times (reporting the median set-up
// time), runs it on the last deployment, and checks the outcome.
func execute(w *workload, opt options) (*outcome, error) {
	out := &outcome{Correct: true, Metrics: metrics{}, reported: metrics{}, report: map[string]any{}}
	rec := newRecorder()
	host, err := hostInfo()
	if err != nil {
		return nil, err
	}
	out.report["workload"] = w.name
	out.report["seed"] = opt.seed
	out.report["host"] = host
	if w.rate > 0 {
		out.report["offered_ops_per_s"] = w.rate
	}

	var s *setup
	var setupTimes []float64
	for i := range numSetups {
		next, err := newSetup(w, opt.seed, rec)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupTimes = append(setupTimes, next.seconds)
		if i < numSetups-1 {
			if err := next.teardown(); err != nil {
				return nil, fmt.Errorf("set-up teardown: %w", err)
			}
			continue
		}
		s = next
	}
	defer s.teardown()
	out.report["setup_s_each"] = setupTimes
	out.report["relation_working_set_bytes"] = s.workingSet
	out.report["relation_cache_budget_bytes"] = s.budget
	if w.cacheBytes > 0 && s.workingSet < 2*s.budget {
		return nil, fmt.Errorf("relation working set %d B is under twice the cache budget %d B", s.workingSet, s.budget)
	}

	if opt.afterSetup != nil {
		opt.afterSetup(s)
	}
	r := &runner{w: w, g: s.g, o: s.o, d: s.d, rec: rec}
	if r.alice, err = s.d.newClient("alice"); err != nil {
		return nil, err
	}
	defer r.alice.Close()
	if r.bob, err = s.d.newClient("bob"); err != nil {
		return nil, err
	}
	defer r.bob.Close()

	r.run(opt.warmup)
	r.reset()
	window := time.Duration(opt.seconds * float64(time.Second))
	if !opt.trace {
		wr := measure(r, window)
		out.Attempted = len(wr.samples)
		if err := endToEnd(out, s, wr, median(setupTimes)); err != nil {
			return nil, err
		}
	} else {
		untraced := measure(r, window/2)
		rec.on.Store(true)
		traced := measure(r, window/2)
		rec.on.Store(false)
		out.Attempted = len(untraced.samples) + len(traced.samples)
		kt, err := measureKernels(w)
		if err != nil {
			return nil, fmt.Errorf("kernels: %w", err)
		}
		perLayer(out, w, untraced, traced, rec.take(), kt, s)
	}

	out.Failed = r.refused + r.failed + r.wrong
	out.report["refused"], out.report["failed"], out.report["wrong"] = r.refused, r.failed, r.wrong
	out.reported.set("error_rate", ratio(float64(out.Failed), float64(out.Attempted)), "ratio")
	if r.wrong > 0 {
		out.Correct = false
	}
	if len(r.firstErrs) > 0 {
		out.report["first_errors"] = r.firstErrs
	}
	checks := finalChecks(s)
	r.alice.Close()
	r.bob.Close()
	checks = append(checks, restartCheck(s)...)
	out.report["checks_failed"] = checks
	if len(checks) > 0 {
		out.Correct = false
	}
	return out, nil
}

// measure runs one measured window and snapshots every counter around it.
func measure(r *runner, window time.Duration) *windowResult {
	wr := &windowResult{before: takeLayers(r.d)}
	start := time.Now()
	wr.loop = r.run(window)
	wr.elapsed = time.Since(start)
	wr.after = takeLayers(r.d)
	r.mu.Lock()
	wr.samples = r.samples
	for _, s := range wr.samples {
		wr.userBytes += s.bytes
	}
	r.mu.Unlock()
	r.reset()
	return wr
}

// byClass splits request latencies and bytes by op class, each class's
// latencies in the order the requests started.
func byClass(samples []sample) (lat [numClasses][]int64, bytes, busy [numClasses]int64) {
	samples = append([]sample(nil), samples...)
	sort.SliceStable(samples, func(i, j int) bool { return samples[i].start < samples[j].start })
	for _, s := range samples {
		lat[s.class] = append(lat[s.class], s.end-s.start)
		bytes[s.class] += s.bytes
		busy[s.class] += s.end - s.start
	}
	return
}

// endToEnd fills the user-visible metrics of an untraced window.
func endToEnd(out *outcome, s *setup, wr *windowResult, setupS float64) error {
	m := out.Metrics
	ops := wr.ops()
	m.set("setup_s", setupS, "s")
	m.set("ops_per_s", opsPerSecond(wr.samples), "1/s")
	out.report["whole_window_ops_per_s"] = ops / wr.elapsed.Seconds()
	lat, bytes, busy := byClass(wr.samples)
	tails := map[string]any{}
	for c := range numClasses {
		t := latencyStats(lat[c])
		m.set(classNames[c]+"_p50_ms", t.P50ms, "ms")
		out.reported.set(classNames[c]+"_tail_ms", t.Tailms, "ms")
		tails[classNames[c]+"_tail_ms"] = map[string]any{"percentile": t.Percentile, "samples": t.N, "groups": t.Groups}
	}
	out.report["tails"] = tails
	out.reported.set("read_MBps", ratio(float64(bytes[classRead]), float64(busy[classRead])*1e-9)/1e6, "MB/s")
	out.reported.set("write_MBps", ratio(float64(bytes[classWrite]), float64(busy[classWrite])*1e-9)/1e6, "MB/s")
	proc0, proc1 := wr.before.proc, wr.after.proc
	out.report["host_steal_share"] = ratio(float64(proc1.stealTicks-proc0.stealTicks), float64(proc1.hostTicks-proc0.hostTicks))
	m.set("cpu_ms_per_op", ratio(float64(proc1.cpuNs-proc0.cpuNs)/1e6, ops), "ms")
	m.set("alloc_KB_per_op", ratio(float64(proc1.allocBytes-proc0.allocBytes)/1024, ops), "KB")
	stored, err := s.d.storedBytes()
	if err != nil {
		return err
	}
	m.set("stored_bytes_per_user_byte", ratio(float64(stored), float64(s.liveBytes())), "ratio")
	out.report["notes"] = "cpu_ms_per_op is the whole process's user+sys time, load generator included; " +
		"read/write/admin latencies run from each request's due time in the open-loop workloads"
	return nil
}

// liveBytes is the user data the file system holds per the oracle.
func (s *setup) liveBytes() int64 {
	var n int64
	s.o.mu.Lock()
	defer s.o.mu.Unlock()
	for key, ks := range s.o.keys {
		if ks.exists {
			n += int64(s.g.keySize(key))
		}
	}
	return n
}

// finalChecks runs the after-window checks on the live server.
func finalChecks(s *setup) []string {
	var failed []string
	if err := s.d.server.Fsck(); err != nil {
		failed = append(failed, "fsck: "+err.Error())
	}
	if n := takeReg(s.d.reg).value("segshare_rollback_failures_total", nil); n != 0 {
		failed = append(failed, fmt.Sprintf("rollback failures: %v", n))
	}
	return failed
}

// restartCheck closes the server, reopens it on the same stores and
// platform, and requires that the journal replays nothing and that every
// acknowledged write reads back with its recorded hash.
func restartCheck(s *setup) []string {
	var failed []string
	if err := s.teardown(); err != nil {
		return []string{"restart: stop: " + err.Error()}
	}
	srv, reg, err := s.d.reopen()
	if err != nil {
		return []string{"restart: reopen: " + err.Error()}
	}
	defer srv.Close()
	snap := takeReg(reg)
	if n := snap.value("segshare_journal_replayed_total", nil) + snap.value("segshare_journal_discarded_total", nil); n != 0 {
		failed = append(failed, fmt.Sprintf("restart: journal replayed or discarded %v records", n))
	}
	alice := srv.Direct("alice")
	w := s.g.w
	s.o.mu.Lock()
	defer s.o.mu.Unlock()
	for key, ks := range s.o.keys {
		if ks.unknown {
			continue
		}
		path := w.leafPath(s.o.leafOf(key)) + ks.name
		data, err := alice.Download(path)
		switch {
		case !ks.exists && errors.Is(err, segshare.ErrNotFound):
		case !ks.exists:
			failed = append(failed, fmt.Sprintf("restart: %s: deleted file reads back (%v)", path, err))
		case err != nil:
			failed = append(failed, fmt.Sprintf("restart: %s: %v", path, err))
		case sha256.Sum256(data) != ks.hash:
			failed = append(failed, fmt.Sprintf("restart: %s: content hash mismatch", path))
		}
	}
	if err := srv.Fsck(); err != nil {
		failed = append(failed, "restart: fsck: "+err.Error())
	}
	return failed
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s[len(s)/2]
}

// hostInfo records what the numbers were measured on, including the file
// system of the working directory (the checkout the benchmark runs in).
func hostInfo() (map[string]any, error) {
	dir := "."
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return nil, fmt.Errorf("statfs %s: %w", dir, err)
	}
	fsName := map[int64]string{0xEF53: "ext4", 0x01021994: "tmpfs", 0x58465342: "xfs", 0x9123683E: "btrfs", 0x794c7630: "overlayfs"}[int64(st.Type)]
	if fsName == "" {
		fsName = fmt.Sprintf("0x%x", st.Type)
	}
	return map[string]any{
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "os": runtime.GOOS + "/" + runtime.GOARCH, "checkout_fs": fsName,
	}, nil
}

// printOutcome prints every metric by name with its unit, the report,
// and last the result line.
func printOutcome(w io.Writer, out *outcome) {
	printMetrics(w, out.Metrics, "")
	printMetrics(w, out.reported, "  (reported, not in the result line)")
	rep, _ := json.Marshal(out.report) // plain maps, slices and numbers
	fmt.Fprintf(w, "report %s\n", rep)
	line, _ := json.Marshal(out)
	fmt.Fprintf(w, "%s\n", line)
}

func printMetrics(w io.Writer, m metrics, note string) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%-40s %14.6g %s%s\n", n, m[n].Value, m[n].Unit, note)
	}
}
