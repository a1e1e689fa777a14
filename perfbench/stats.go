package main

import (
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"segshare/internal/cache"
	"segshare/internal/enclave"
	"segshare/internal/obs"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	m[name] = metric{Value: v, Unit: unit}
}

// tail summarises one op class's latencies. Tailms is the highest
// percentile with at least ten samples beyond it, taken in each of Groups
// consecutive runs of at least tailGroup samples (in send order), and the
// median over the groups: one stall then moves one group, not the result.
type tail struct {
	P50ms, Tailms float64
	Percentile    float64
	N, Groups     int
}

const tailGroup = 100

// latencyStats expects lat in the order the requests were issued.
func latencyStats(lat []int64) tail {
	n := len(lat)
	if n == 0 {
		return tail{}
	}
	groups := max(1, min(10, n/tailGroup))
	var tails []float64
	var pct float64
	for g := range groups {
		part := append([]int64(nil), lat[g*n/groups:(g+1)*n/groups]...)
		sort.Slice(part, func(i, j int) bool { return part[i] < part[j] })
		k := len(part)
		if k > 10 {
			tails = append(tails, ms(part[k-11]))
			pct = 100 * float64(k-10) / float64(k)
		} else {
			tails, pct = append(tails, ms(part[k-1])), 100
		}
	}
	s := append([]int64(nil), lat...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return tail{P50ms: ms(s[(n-1)/2]), Tailms: median(tails), Percentile: pct, N: n, Groups: groups}
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// processSnap is the process-wide cost counters: CPU time of the whole
// process (server and load generator alike) and the Go allocator.
type processSnap struct {
	cpuNs                    int64
	allocBytes, allocObjects uint64
	gcCycles                 uint32
	// hostTicks and stealTicks are the whole machine's CPU time and the
	// part of it the hypervisor gave to other guests, from /proc/stat
	// (zero where it cannot be read).
	hostTicks, stealTicks int64
}

// hostCPU reads the aggregate line of /proc/stat.
func hostCPU() (total, steal int64) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	// user nice system idle iowait irq softirq steal [guest guest_nice],
	// where guest time is already inside user.
	for i, f := range fields[1:9] {
		v, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return total, steal
}

func takeProcess() processSnap {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	snap := processSnap{
		cpuNs:        ru.Utime.Nano() + ru.Stime.Nano(),
		allocBytes:   ms.TotalAlloc,
		allocObjects: ms.Mallocs,
		gcCycles:     ms.NumGC,
	}
	snap.hostTicks, snap.stealTicks = hostCPU()
	return snap
}

// regSnap indexes a registry snapshot by metric name.
type regSnap map[string][]obs.MetricSnapshot

func takeReg(r *obs.Registry) regSnap {
	out := regSnap{}
	for _, m := range r.Snapshot() {
		out[m.Name] = append(out[m.Name], m)
	}
	return out
}

func labelsMatch(m obs.MetricSnapshot, want map[string]string) bool {
	for k, v := range want {
		found := false
		for _, l := range m.Labels {
			if l.Key == k && l.Value == v {
				found = true
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// value sums a counter or gauge over the label sets matching want.
func (s regSnap) value(name string, want map[string]string) float64 {
	var v float64
	for _, m := range s[name] {
		if labelsMatch(m, want) {
			v += float64(m.Value)
		}
	}
	return v
}

// hist sums a histogram's count and sum over matching label sets.
func (s regSnap) hist(name string, want map[string]string) (count, sum float64) {
	for _, m := range s[name] {
		if m.Histogram != nil && labelsMatch(m, want) {
			count += float64(m.Histogram.Count)
			sum += float64(m.Histogram.Sum)
		}
	}
	return count, sum
}

// layerSnap is every counter the per-layer metrics are deltas of.
type layerSnap struct {
	reg    regSnap
	caches map[string]cache.Stats
	bridge enclave.BridgeMetrics
	proc   processSnap
	stores [numRoles]storeSnap
	conn   struct{ accepted, calls, readBytes, writeBytes int64 }
}

type storeSnap struct {
	ops, busyNs, readBytes, writeBytes, journalPuts int64
}

func takeLayers(d *deployment) layerSnap {
	ls := layerSnap{
		reg:    takeReg(d.reg),
		caches: d.server.CacheStats(),
		bridge: d.server.BridgeMetrics(),
		proc:   takeProcess(),
	}
	for role, s := range d.stores {
		ls.stores[role] = storeSnap{
			ops: s.ops.Load(), busyNs: s.busyNs.Load(),
			readBytes: s.readBytes.Load(), writeBytes: s.writeBytes.Load(),
			journalPuts: s.journalPuts.Load(),
		}
	}
	ls.conn.accepted = d.listener.accepted.Load()
	ls.conn.calls = d.listener.calls.Load()
	ls.conn.readBytes = d.listener.readBytes.Load()
	ls.conn.writeBytes = d.listener.writeBytes.Load()
	return ls
}

// opClassOf maps the server's op label to the bench's op classes.
func opClassOf(op string) int {
	switch {
	case strings.HasPrefix(op, "api_"):
		return classAdmin
	case op == "fs_get", op == "fs_propfind", op == "fs_head":
		return classRead
	default:
		return classWrite
	}
}

// windowResult is what one measured window produced.
type windowResult struct {
	samples   []sample
	elapsed   time.Duration
	loop      loopStats
	before    layerSnap
	after     layerSnap
	userBytes int64
}

func (wr *windowResult) ops() float64 { return float64(len(wr.samples)) }

// Throughput is taken in up to rateGroups consecutive groups of at least
// rateGroup requests.
const (
	rateGroup  = 50
	rateGroups = 20
)

// opsPerSecond is the median, over consecutive groups of requests in start
// order, of a group's size over the time from its first start to its last
// end. A stretch in which other tenants of the host took its CPUs then
// moves one group, not the result; a slower program moves every group.
func opsPerSecond(samples []sample) float64 {
	n := len(samples)
	if n == 0 {
		return 0
	}
	s := append([]sample(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i].start < s[j].start })
	groups := max(1, min(rateGroups, n/rateGroup))
	var rates []float64
	for g := range groups {
		part := s[g*n/groups : (g+1)*n/groups]
		last := part[0].end
		for _, x := range part {
			last = max(last, x.end)
		}
		rates = append(rates, ratio(float64(len(part)), float64(last-part[0].start)*1e-9))
	}
	return median(rates)
}
