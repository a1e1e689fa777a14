package main

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Span kinds recorded by the bench's wrappers.
const (
	spanStore = iota
	spanConn
)

// span is one timed call into a layer, in nanoseconds since the
// recorder's base time. For store spans sub is the role; for conn spans
// 0 is a read and 1 a write.
type span struct {
	kind, sub  int
	start, end int64
}

// request is one client request in flight: from when the client sent it
// to its completion.
type request struct {
	class      int
	start, end int64
}

// recorder keeps spans in memory while on; the traced pass turns it on
// for its measured window and reads the spans out at the end.
type recorder struct {
	base time.Time
	on   atomic.Bool
	mu   sync.Mutex
	sp   []span
}

func newRecorder() *recorder { return &recorder{base: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.base)) }

func (r *recorder) add(kind, sub int, start, end int64) {
	if !r.on.Load() {
		return
	}
	r.mu.Lock()
	r.sp = append(r.sp, span{kind: kind, sub: sub, start: start, end: end})
	r.mu.Unlock()
}

// take returns the recorded spans and clears the buffer.
func (r *recorder) take() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.sp
	r.sp = nil
	return out
}

// split is how the request time of one op class divides. Store is the
// time covered by attributed store spans, Conn the time covered by
// attributed conn spans and no store span, Self the time no attributed
// span covers, and Unattributed the rest: time covered only by spans
// that overlapped more than one in-flight request. The four parts add up
// to Request exactly.
type split struct {
	Requests                                 int
	Request, Store, Conn, Self, Unattributed int64
}

// attribution is the outcome of matching spans to requests.
type attribution struct {
	byClass   [numClasses]split
	children  int // spans overlapping at least one request
	ambiguous int // of those, spans overlapping two or more
}

// attribute assigns each span that overlaps exactly one request to that
// request, then splits every request's interval as described on split.
//
// A server read on an idle keep-alive connection blocks until the next
// request arrives, so its span would cover the tail of the previous
// request as well. Such a read waited for the peer, not for I/O: a conn
// read span is taken to start no earlier than the last request sent
// before it returned.
func attribute(reqs []request, spans []span) attribution {
	var at attribution
	order := make([]int, len(reqs))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return reqs[order[a]].start < reqs[order[b]].start })
	lastSentBefore := func(t int64) (int64, bool) {
		i := sort.Search(len(order), func(i int) bool { return reqs[order[i]].start > t })
		if i == 0 {
			return 0, false
		}
		return reqs[order[i-1]].start, true
	}
	// maxEnd[i] is the latest end among the first i+1 requests in start
	// order, which bounds the backwards scan for overlaps.
	maxEnd := make([]int64, len(order))
	for i, ri := range order {
		maxEnd[i] = reqs[ri].end
		if i > 0 && maxEnd[i-1] > maxEnd[i] {
			maxEnd[i] = maxEnd[i-1]
		}
	}
	own := make([][]span, len(reqs))
	shared := make([][]span, len(reqs))
	var hits []int
	for _, s := range spans {
		if s.kind == spanConn && s.sub == 0 {
			sent, ok := lastSentBefore(s.end)
			if !ok {
				continue
			}
			s.start = max(s.start, sent)
		}
		// Requests starting before the span ends are candidates.
		hi := sort.Search(len(order), func(i int) bool { return reqs[order[i]].start >= s.end })
		hits = hits[:0]
		for i := hi - 1; i >= 0 && maxEnd[i] > s.start; i-- {
			r := reqs[order[i]]
			if r.end > s.start && r.start < s.end {
				hits = append(hits, order[i])
			}
		}
		switch {
		case len(hits) == 0:
			continue
		case len(hits) == 1:
			own[hits[0]] = append(own[hits[0]], s)
		default:
			at.ambiguous++
			for _, ri := range hits {
				shared[ri] = append(shared[ri], s)
			}
		}
		at.children++
	}
	for i, r := range reqs {
		sp := &at.byClass[r.class]
		sp.Requests++
		total := r.end - r.start
		sp.Request += total
		store := coverage(r, own[i], func(s span) bool { return s.kind == spanStore })
		anyOwn := coverage(r, own[i], func(span) bool { return true })
		all := coverage(r, append(own[i], shared[i]...), func(span) bool { return true })
		sp.Store += store
		sp.Conn += anyOwn - store
		sp.Self += total - all
		sp.Unattributed += all - anyOwn
	}
	return at
}

// coverage is the length of the union of the spans that keep selects,
// clipped to the request's interval.
func coverage(r request, spans []span, keep func(span) bool) int64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, s := range spans {
		if !keep(s) {
			continue
		}
		a, b := max(s.start, r.start), min(s.end, r.end)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	started := false
	for _, v := range ivs {
		if !started || v.a > curB {
			if started {
				total += curB - curA
			}
			curA, curB, started = v.a, v.b, true
			continue
		}
		curB = max(curB, v.b)
	}
	if started {
		total += curB - curA
	}
	return total
}
