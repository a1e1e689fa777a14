package main

import (
	"sync"
)

// keyState is the oracle's view of one file. Its fields are guarded by
// oracle.mu; op serializes the operations on the key, so no two requests
// on one file are in flight at once and each GET has one right answer.
type keyState struct {
	op sync.Mutex
	keyData
}

// keyData is the part of keyState an op reads at its start.
type keyData struct {
	name   string
	moved  bool
	exists bool
	hash   [32]byte
	// unknown is set after a failed mutation, whose effect the client
	// cannot know; reads are not checked until the next acknowledged write.
	unknown bool
	busy    bool
	// gen counts the ops started on the key.
	gen uint64
}

// oracle tracks what every acknowledged request must have done, so each
// response can be checked against it.
type oracle struct {
	w  *workload
	mu sync.Mutex

	keys []*keyState
	// team[t] is held for reading by bob's requests in team t and for
	// writing by revoke cycles that change bob's access there.
	team      []sync.RWMutex
	bobMember []bool // per team
	grant     []bool // per leaf: the team group's read grant on the leaf
	filler    [][]bool
	fillerOn  [][]bool // reservations, so one (team, member) pair is never raced
	perm      [][]bool // per leaf: fillerPermGroup(j) holds a read grant
	permOn    [][]bool
}

func newOracle(w *workload) *oracle {
	o := &oracle{
		w:         w,
		keys:      make([]*keyState, w.numKeys()),
		team:      make([]sync.RWMutex, w.teams),
		bobMember: make([]bool, w.teams),
		grant:     make([]bool, w.numLeaves()),
		filler:    make([][]bool, w.teams),
		fillerOn:  make([][]bool, w.teams),
		perm:      make([][]bool, w.numLeaves()),
		permOn:    make([][]bool, w.numLeaves()),
	}
	for i := range o.keys {
		o.keys[i] = &keyState{keyData: keyData{name: keyName(i%w.files, false)}}
	}
	for t := range w.teams {
		o.bobMember[t] = true
		o.filler[t] = make([]bool, w.members[t])
		o.fillerOn[t] = make([]bool, w.members[t])
		for j := range o.filler[t] {
			o.filler[t][j] = true
		}
	}
	for l := range o.grant {
		o.grant[l] = true
		o.perm[l] = make([]bool, fillerPerms)
		o.permOn[l] = make([]bool, fillerPerms)
	}
	return o
}

func (o *oracle) leafOf(key int) int  { return key / o.w.files }
func (o *oracle) teamOf(leaf int) int { return leaf / o.w.leaves }

// lockKey takes a key for one operation and returns a snapshot of it.
func (o *oracle) lockKey(key int) (*keyState, keyData) {
	ks := o.keys[key]
	ks.op.Lock()
	o.mu.Lock()
	ks.busy = true
	ks.gen++
	snap := ks.keyData
	o.mu.Unlock()
	return ks, snap
}

// unlockKey records the op's outcome and releases the key.
func (o *oracle) unlockKey(ks *keyState, update func(*keyState)) {
	o.mu.Lock()
	if update != nil {
		update(ks)
	}
	ks.busy = false
	o.mu.Unlock()
	ks.op.Unlock()
}

// bobCanRead reports whether bob may read in leaf; the caller holds the
// team lock.
func (o *oracle) bobCanRead(leaf int) bool {
	return o.bobMember[o.teamOf(leaf)] && o.grant[leaf]
}

// listSnap returns the oracle's view of the files in leaf, to be taken
// once before and once after a listing.
func (o *oracle) listSnap(leaf int) []keyData {
	o.mu.Lock()
	defer o.mu.Unlock()
	out := make([]keyData, o.w.files)
	for i := range out {
		out[i] = o.keys[leaf*o.w.files+i].keyData
	}
	return out
}

// listExpect returns the names a listing taken between the two
// snapshots must show (files no op touched meanwhile) and the names it
// may show (any name a file had or could have had meanwhile).
func listExpect(before, after []keyData) (must, may map[string]bool) {
	must = map[string]bool{pinnedName: true}
	may = map[string]bool{pinnedName: true}
	for i := range before {
		b, a := before[i], after[i]
		switch {
		case b.busy || a.busy || b.gen != a.gen || a.unknown:
			may[keyName(i, false)] = true
			may[keyName(i, true)] = true
		case a.exists:
			must[a.name] = true
			may[a.name] = true
		}
	}
	return must, may
}

// reserve claims a free slot at or after j in a toggle table and returns
// it, or -1 when every slot is taken.
func (o *oracle) reserve(on []bool, j int) int {
	o.mu.Lock()
	defer o.mu.Unlock()
	for n := range on {
		i := (j + n) % len(on)
		if !on[i] {
			on[i] = true
			return i
		}
	}
	return -1
}
