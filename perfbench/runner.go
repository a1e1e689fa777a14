package main

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"hash"
	"sync"
	"time"

	"segshare"
)

// What a request must do for the oracle to accept it.
const (
	expectOK      = iota
	expectDenied  // 403
	expectMissing // 404, or 403 when the caller may not see the parent either
	expectAny     // the oracle lost track after a failed request
)

// sample is one timed request: its latency runs from start (the op's
// due time in the open loop) to end, and it was in flight from sent.
type sample struct {
	class            int
	start, sent, end int64
	bytes            int64
}

// runner executes ops against one deployment and checks every response.
type runner struct {
	w     *workload
	g     *generator
	o     *oracle
	d     *deployment
	alice *segshare.Client
	bob   *segshare.Client
	rec   *recorder

	mu        sync.Mutex
	samples   []sample
	refused   int
	failed    int
	wrong     int
	firstErrs []string
}

func (r *runner) note(kind *int, format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	*kind++
	if len(r.firstErrs) < 8 {
		r.firstErrs = append(r.firstErrs, fmt.Sprintf(format, args...))
	}
}

// request issues one call, records its latency from start, and checks
// the outcome class against expect. It reports whether the call did what
// the oracle expected.
func (r *runner) request(class int, start int64, expect int, what string, call func() (int64, error)) bool {
	sent := r.rec.now()
	n, err := call()
	end := r.rec.now()
	r.mu.Lock()
	r.samples = append(r.samples, sample{class: class, start: start, sent: sent, end: end, bytes: n})
	r.mu.Unlock()
	switch {
	case errors.Is(err, segshare.ErrOverloaded), errors.Is(err, segshare.ErrCanceled), errors.Is(err, segshare.ErrTooLarge):
		r.note(&r.refused, "%s: refused: %v", what, err)
		return false
	case expect == expectAny:
		return err == nil
	case err == nil && expect == expectOK:
		return true
	case err == nil:
		r.note(&r.wrong, "%s: succeeded, expected %s", what, expectName(expect))
	case errors.Is(err, segshare.ErrPermissionDenied) && (expect == expectDenied || expect == expectMissing):
		return true
	case errors.Is(err, segshare.ErrNotFound) && expect == expectMissing:
		return true
	case errors.Is(err, segshare.ErrPermissionDenied), errors.Is(err, segshare.ErrNotFound):
		r.note(&r.wrong, "%s: %v, expected %s", what, err, expectName(expect))
	default:
		r.note(&r.failed, "%s: %v", what, err)
	}
	return false
}

func expectName(e int) string {
	return [...]string{"success", "denial", "not-found", "any"}[e]
}

type countingWriter struct {
	h hash.Hash
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return c.h.Write(p)
}

// get downloads path as c and checks the body against want when the
// oracle knows it.
func (r *runner) get(c *segshare.Client, start int64, expect int, path string, want [32]byte) {
	cw := &countingWriter{h: sha256.New()}
	ok := r.request(classRead, start, expect, "GET "+path, func() (int64, error) {
		err := c.DownloadTo(path, cw)
		return cw.n, err
	})
	if ok && expect == expectOK {
		var got [32]byte
		cw.h.Sum(got[:0])
		if got != want {
			r.note(&r.wrong, "GET %s: content hash mismatch", path)
		}
	}
}

// exec runs one scheduled op; start is when its first request is due.
func (r *runner) exec(o op, start int64) {
	w, or := r.w, r.o
	switch o.kind {
	case kGetAlice, kGetBob:
		leaf := or.leafOf(o.key)
		c := r.alice
		if o.kind == kGetBob {
			c = r.bob
			or.team[or.teamOf(leaf)].RLock()
			defer or.team[or.teamOf(leaf)].RUnlock()
		}
		ks, snap := or.lockKey(o.key)
		defer or.unlockKey(ks, nil)
		expect := expectOK
		switch {
		case snap.unknown:
			expect = expectAny
		case o.kind == kGetBob && !or.bobCanRead(leaf):
			expect = expectDenied
		case !snap.exists:
			expect = expectMissing
		}
		r.get(c, start, expect, w.leafPath(leaf)+snap.name, snap.hash)

	case kListAlice, kListBob:
		c := r.alice
		expect := expectOK
		if o.kind == kListBob {
			c = r.bob
			or.team[or.teamOf(o.key)].RLock()
			defer or.team[or.teamOf(o.key)].RUnlock()
			if !or.bobCanRead(o.key) {
				expect = expectDenied
			}
		}
		path := w.leafPath(o.key)
		before := or.listSnap(o.key)
		var listing *segshare.Listing
		ok := r.request(classRead, start, expect, "LIST "+path, func() (int64, error) {
			l, err := c.List(path)
			listing = l
			return 0, err
		})
		if ok && expect == expectOK {
			r.checkListing(o.key, listing, before, or.listSnap(o.key))
		}

	case kPut, kMove, kRecreate:
		r.mutateKey(o, start)

	case kFillerMember:
		t := o.key
		slot := or.reserve(or.fillerOn[t], o.j)
		if slot < 0 {
			return
		}
		in := or.filler[t][slot]
		user, group := fillerUser(t, slot), teamGroup(t)
		ok := r.request(classAdmin, start, expectOK, "membership "+group, func() (int64, error) {
			if in {
				return 0, r.alice.RemoveUser(user, group)
			}
			return 0, r.alice.AddUser(user, group)
		})
		or.mu.Lock()
		if ok {
			or.filler[t][slot] = !in
		}
		or.fillerOn[t][slot] = false
		or.mu.Unlock()

	case kFillerPerm:
		leaf := o.key
		slot := or.reserve(or.permOn[leaf], o.j)
		if slot < 0 {
			return
		}
		in := or.perm[leaf][slot]
		perm := "r"
		if in {
			perm = "none"
		}
		path := w.leafPath(leaf)
		ok := r.request(classAdmin, start, expectOK, "permission "+path, func() (int64, error) {
			return 0, r.alice.SetPermission(path, fillerPermGroup(slot), perm)
		})
		or.mu.Lock()
		if ok {
			or.perm[leaf][slot] = !in
		}
		or.permOn[leaf][slot] = false
		or.mu.Unlock()

	case kRevokeMember, kRevokePerm:
		r.revokeCycle(o, start)
	}
}

// mutateKey runs the file-changing ops on one key.
func (r *runner) mutateKey(o op, start int64) {
	w, or := r.w, r.o
	leaf := or.leafOf(o.key)
	dir := w.leafPath(leaf)
	ks, snap := or.lockKey(o.key)
	var update func(*keyState)
	defer func() { or.unlockKey(ks, update) }()
	fail := func(k *keyState) { k.unknown = true }

	create := func(start int64) {
		data, sum := r.g.content(o.key, o.serial, o.dup)
		path := dir + snap.name
		ok := r.request(classWrite, start, expectOK, "PUT "+path, func() (int64, error) {
			return int64(len(data)), r.alice.Upload(path, data)
		})
		if !ok {
			update = fail
			return
		}
		ok = r.request(classAdmin, r.rec.now(), expectOK, "inherit "+path, func() (int64, error) {
			return 0, r.alice.SetInherit(path, true)
		})
		if !ok {
			update = fail
			return
		}
		update = func(k *keyState) { k.exists, k.hash, k.unknown = true, sum, false }
	}
	remove := func() bool {
		path := dir + snap.name
		ok := r.request(classWrite, start, expectOK, "DELETE "+path, func() (int64, error) {
			return 0, r.alice.Remove(path)
		})
		if !ok {
			update = fail
		}
		return ok
	}

	if !snap.exists {
		create(start)
		return
	}
	switch o.kind {
	case kPut:
		data, sum := r.g.content(o.key, o.serial, o.dup)
		path := dir + snap.name
		ok := r.request(classWrite, start, expectOK, "PUT "+path, func() (int64, error) {
			return int64(len(data)), r.alice.Upload(path, data)
		})
		if !ok {
			update = fail
			return
		}
		update = func(k *keyState) { k.hash, k.unknown = sum, false }
	case kMove:
		to := keyName(o.key%w.files, !snap.moved)
		ok := r.request(classWrite, start, expectOK, "MOVE "+dir+snap.name, func() (int64, error) {
			return 0, r.alice.Move(dir+snap.name, dir+to)
		})
		if !ok {
			update = fail
			return
		}
		update = func(k *keyState) { k.name, k.moved = to, !k.moved }
	case kRecreate:
		if remove() {
			create(r.rec.now())
		}
	}
}

// revokeCycle revokes bob's access to a team (membership) or leaf
// (permission), checks that bob's next request there is denied, and
// grants the access again. The team lock keeps bob's other requests in
// the team from interleaving, so the expected answer is exact.
func (r *runner) revokeCycle(o op, start int64) {
	w, or := r.w, r.o
	var t, leaf int
	if o.kind == kRevokeMember {
		t, leaf = o.key, o.key*w.leaves
	} else {
		t, leaf = or.teamOf(o.key), o.key
	}
	or.team[t].Lock()
	defer or.team[t].Unlock()
	dir, group := w.leafPath(leaf), teamGroup(t)
	revoke, grant := func() error { return r.alice.RemoveUser("bob", group) }, func() error { return r.alice.AddUser("bob", group) }
	state := &or.bobMember[t]
	if o.kind == kRevokePerm {
		revoke = func() error { return r.alice.SetPermission(dir, group, "none") }
		grant = func() error { return r.alice.SetPermission(dir, group, "r") }
		state = &or.grant[leaf]
	}
	if !r.request(classAdmin, start, expectOK, "revoke "+group, func() (int64, error) { return 0, revoke() }) {
		return
	}
	*state = false
	r.get(r.bob, r.rec.now(), expectDenied, dir+pinnedName, [32]byte{})
	if !r.request(classAdmin, r.rec.now(), expectOK, "grant "+group, func() (int64, error) { return 0, grant() }) {
		return
	}
	*state = true
}

// checkListing compares a listing of leaf with the oracle.
func (r *runner) checkListing(leaf int, l *segshare.Listing, before, after []keyData) {
	must, may := listExpect(before, after)
	seen := make(map[string]bool, len(l.Entries))
	for _, e := range l.Entries {
		seen[e.Name] = true
		if !may[e.Name] {
			r.note(&r.wrong, "LIST %s: unexpected entry %q", r.w.leafPath(leaf), e.Name)
		}
	}
	for name := range must {
		if !seen[name] {
			r.note(&r.wrong, "LIST %s: missing entry %q", r.w.leafPath(leaf), name)
		}
	}
}

// loopStats describes how closely the open-loop generator kept to its
// schedule.
type loopStats struct {
	lateNs     []int64
	backlogMax int
}

// openLoop issues a Poisson schedule for window to the workload's
// workers and waits for every issued op to finish. A send blocks while
// all workers are busy, so the generator runs late instead of opening
// more connections; each request is still timed from its due time. Ops
// still unsent a whole window after the window ends are not sent: the
// system could not keep up, and they count as failed.
func (r *runner) openLoop(window time.Duration) loopStats {
	dues := r.g.schedule(window)
	ops := make([]op, len(dues))
	for i := range ops {
		ops[i] = r.g.next()
	}
	ch := make(chan op)
	var wg sync.WaitGroup
	for range openLoopConns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for o := range ch {
				r.exec(o, o.due)
			}
		}()
	}
	var st loopStats
	t0 := r.rec.now()
	for i := range ops {
		due := t0 + dues[i]
		if r.rec.now() > t0+2*int64(window) {
			r.note(&r.failed, "open loop: %d ops never sent, the server fell a whole window behind", len(ops)-i)
			break
		}
		if d := due - r.rec.now(); d > 0 {
			time.Sleep(time.Duration(d))
		}
		ops[i].due = due
		ch <- ops[i]
		now := r.rec.now()
		st.lateNs = append(st.lateNs, now-due)
		backlog := 0
		for j := i + 1; j < len(dues) && t0+dues[j] <= now; j++ {
			backlog++
		}
		st.backlogMax = max(st.backlogMax, backlog)
	}
	close(ch)
	wg.Wait()
	return st
}

// closedLoop runs the workload on one connection until window ends,
// sending each op when the previous one completes.
func (r *runner) closedLoop(window time.Duration) {
	next := r.g.next
	if r.w.bulkSize > 0 {
		next = r.g.nextBulk
	}
	deadline := r.rec.now() + int64(window)
	for r.rec.now() < deadline {
		r.exec(next(), r.rec.now())
	}
}

// run drives the workload's loop for window.
func (r *runner) run(window time.Duration) loopStats {
	if r.w.rate == 0 {
		r.closedLoop(window)
		return loopStats{}
	}
	return r.openLoop(window)
}

// reset drops the samples gathered so far (after warm-up). Failures and
// wrong answers are kept: they count against the run wherever they
// happened.
func (r *runner) reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.samples = nil
}
