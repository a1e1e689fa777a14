package main

import (
	"crypto/sha256"
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"time"

	"segshare"
)

// Op classes the end-to-end latencies are reported by.
const (
	classRead  = iota // GET, list
	classWrite        // PUT, move, delete, mkdir
	classAdmin        // membership and permission changes
	numClasses
)

var classNames = [numClasses]string{"read", "write", "admin"}

// Op kinds the generators draw.
const (
	kGetAlice = iota
	kGetBob
	kListAlice
	kListBob
	kPut
	kMove
	kRecreate     // delete, upload, re-enable inheritance
	kFillerMember // AddUser/RemoveUser of a pre-existing member
	kFillerPerm   // SetPermission grant/revoke for another group
	kRevokeMember // RemoveUser bob, check denial, AddUser bob
	kRevokePerm   // SetPermission none on bob's grant, check, grant again
	numKinds
)

// workload is one named traffic mix over one corpus and deployment.
// BENCHMARK.json says why each exists; WORKLOADS.md describes them.
type workload struct {
	name string

	// rate is the fixed offered load of the open loop in ops/s (scheduled
	// ops, each one to three requests) on openLoopConns connections. Zero
	// means a closed loop with one connection.
	rate float64

	features   segshare.Features
	audit      bool
	cacheBytes int64

	// Corpus: teams, each with a group, leaves directories per team and
	// files per leaf; nested puts leaves two levels deep.
	teams, leaves, files int
	nested               bool
	// members[t] is the number of pre-existing members of team t's group.
	members []int
	// Sizes: bulkSize for every file, or log-uniform in [minKiB, maxKiB]
	// (discrete powers of two when pow2).
	bulkSize       int
	minKiB, maxKiB float64
	pow2           bool
	// zipf is the key popularity exponent; 0 draws keys uniformly.
	zipf float64
	// dupShare of the keys (by popularity rank, so the share does not
	// depend on the seed) are written with one of a few shared contents
	// per size, so their writes hit in the dedup store.
	dupShare float64
	mix      [numKinds]float64
}

// openLoopConns bounds the requests in flight in the open loop: one per
// CPU of the 2-vCPU reference host.
const openLoopConns = 2

const (
	bulkFiles     = 8
	bulkSize      = 8 << 20
	bulkVariants  = 3
	fillerPerms   = 16
	dupPoolPerCls = 4
)

// Every workload runs against binary defaults unless it says otherwise.
var workloads = []*workload{
	{
		// Fig. 3: the per-byte data path does almost all the work.
		name:  "bulk-transfer",
		teams: 1, leaves: 1, files: bulkFiles, members: []int{1000},
		bulkSize: bulkSize,
	},
	{
		// Fig. 4 + E10 mix: per-request authz, relation cache hits, locks
		// and the bridge dominate.
		name:  "team-share",
		rate:  500,
		teams: 8, leaves: 1, files: 128, members: []int{1000, 316, 100, 32, 10, 3, 1, 0},
		minKiB: 1, maxKiB: 64, zipf: 0.99,
		mix: kindMix(map[int]float64{
			kGetAlice: 30, kGetBob: 30, kListAlice: 5, kListBob: 5, kPut: 15, kMove: 2.5, kRecreate: 2.5,
			kFillerMember: 4, kFillerPerm: 2, kRevokeMember: 2, kRevokePerm: 2,
		}),
	},
	{
		// Fig. 5 hardened: every extension on, relation working set over
		// twice the cache budget.
		// One connection, closed loop: see WORKLOADS.md for why.
		name:     "protected-share",
		features: segshare.Features{Dedup: true, HidePaths: true, RollbackProtection: true, Guard: segshare.GuardCounter},
		audit:    true, cacheBytes: 32 << 10,
		teams: 4, leaves: 4, files: 16, nested: true, members: []int{100, 30, 10, 1},
		minKiB: 1, maxKiB: 64, pow2: true, dupShare: 0.3,
		mix: kindMix(map[int]float64{
			kPut: 50, kRecreate: 10, kMove: 5, kGetAlice: 12.5, kGetBob: 12.5,
			kFillerMember: 4, kFillerPerm: 2, kRevokeMember: 2, kRevokePerm: 2,
		}),
	},
}

func kindMix(m map[int]float64) [numKinds]float64 {
	var out [numKinds]float64
	for k, w := range m {
		out[k] = w
	}
	return out
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func (w *workload) numLeaves() int { return w.teams * w.leaves }
func (w *workload) numKeys() int   { return w.numLeaves() * w.files }

func (w *workload) leafPath(leaf int) string {
	t, j := leaf/w.leaves, leaf%w.leaves
	if w.nested {
		return fmt.Sprintf("/p%d/d%d/", t, j)
	}
	return fmt.Sprintf("/t%d/", t)
}

func teamGroup(t int) string       { return fmt.Sprintf("g%d", t) }
func fillerUser(t, j int) string   { return fmt.Sprintf("m%d-%d", t, j) }
func fillerPermGroup(j int) string { return "user:" + fillerUser(0, j) }
func keyName(i int, moved bool) string {
	if moved {
		return fmt.Sprintf("f%d.m", i)
	}
	return fmt.Sprintf("f%d", i)
}

const pinnedName = "pinned"

// op is one scheduled operation: what the seed chose, not yet bound to
// the file-system state it will meet.
type op struct {
	kind   int
	key    int // key index (file ops) or leaf (list, perm ops) or team
	j      int // filler index
	serial uint64
	dup    int // >= 0: write dedup pool content dup
	due    int64
}

// generator draws the op sequence and every content from the seed.
type generator struct {
	w      *workload
	seed   uint64
	rng    *rand.Rand
	cdf    []float64 // Zipf popularity over ranks; nil for uniform
	rankOf []int     // key -> popularity rank
	keyAt  []int     // rank -> key
	kinds  []int
	kcdf   []float64
	serial uint64
	// cycle is the uniform workloads' key order: a fresh permutation
	// each round, so every key is drawn equally often.
	cycle []int
	// bulk contents: bulkVariants buffers shared by all files, hashed once.
	bulk     [][]byte
	bulkHash [][32]byte
}

func newGenerator(w *workload, seed uint64) *generator {
	g := &generator{w: w, seed: seed, rng: rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15))}
	n := w.numKeys()
	g.keyAt = g.rng.Perm(n)
	g.rankOf = make([]int, n)
	for r, k := range g.keyAt {
		g.rankOf[k] = r
	}
	if w.zipf > 0 {
		g.cdf = make([]float64, n)
		var sum float64
		for r := range n {
			sum += 1 / math.Pow(float64(r+1), w.zipf)
			g.cdf[r] = sum
		}
		for r := range g.cdf {
			g.cdf[r] /= sum
		}
	}
	var sum float64
	for k, wt := range w.mix {
		if wt > 0 {
			sum += wt
			g.kinds = append(g.kinds, k)
			g.kcdf = append(g.kcdf, sum)
		}
	}
	for i := range g.kcdf {
		g.kcdf[i] /= sum
	}
	return g
}

// pickKey draws a key by popularity.
func (g *generator) pickKey() int {
	if g.cdf == nil {
		if len(g.cycle) == 0 {
			g.cycle = g.rng.Perm(len(g.keyAt))
		}
		k := g.cycle[0]
		g.cycle = g.cycle[1:]
		return k
	}
	r := sort.SearchFloat64s(g.cdf, g.rng.Float64())
	return g.keyAt[min(r, len(g.keyAt)-1)]
}

// next draws the next op of a mixed workload.
func (g *generator) next() op {
	g.serial++
	k := g.kinds[sort.SearchFloat64s(g.kcdf, g.rng.Float64())]
	o := op{kind: k, serial: g.serial, dup: -1}
	w := g.w
	switch k {
	case kListAlice, kListBob, kRevokePerm:
		o.key = g.rng.IntN(w.numLeaves())
	case kFillerPerm:
		o.key = g.rng.IntN(w.numLeaves())
		o.j = g.rng.IntN(fillerPerms)
	case kFillerMember:
		o.key = g.pickTeamWithMembers()
		o.j = g.rng.IntN(w.members[o.key])
	case kRevokeMember:
		o.key = g.rng.IntN(w.teams)
	default:
		o.key = g.pickKey()
		if float64(g.rankOf[o.key]%100) < w.dupShare*100 {
			o.dup = g.rng.IntN(dupPoolPerCls)
		}
	}
	return o
}

// nextBulk draws the next step of the bulk cycle: GET f_i (checked
// against the last write), PUT f_i, then one membership change on the
// 1000-member group.
func (g *generator) nextBulk() op {
	g.serial++
	step := g.serial - 1
	o := op{key: int(step/3) % g.w.numKeys(), serial: g.serial, dup: -1}
	switch step % 3 {
	case 0:
		o.kind = kGetAlice
	case 1:
		o.kind = kPut
	default:
		o.kind, o.key, o.j = kFillerMember, 0, g.rng.IntN(g.w.members[0])
	}
	return o
}

func (g *generator) pickTeamWithMembers() int {
	for {
		t := g.rng.IntN(g.w.teams)
		if g.w.members[t] > 0 {
			return t
		}
	}
}

// keySize is a property of the key's popularity rank, not of the seed:
// ranks take log-uniform quantiles in van der Corput order, so every
// seed sees the same size mix at every popularity level.
func (g *generator) keySize(key int) int {
	w := g.w
	if w.bulkSize > 0 {
		return w.bulkSize
	}
	q := vanDerCorput(uint64(g.rankOf[key]) + 1)
	lo, hi := math.Log2(w.minKiB), math.Log2(w.maxKiB)
	if w.pow2 {
		steps := hi - lo + 1
		return 1024 << int(lo+math.Floor(q*steps))
	}
	return int(1024 * math.Exp2(lo+q*(hi-lo)))
}

func vanDerCorput(n uint64) float64 {
	var q, b float64 = 0, 0.5
	for ; n > 0; n >>= 1 {
		if n&1 == 1 {
			q += b
		}
		b /= 2
	}
	return q
}

// content returns the bytes op serial writes to key, and their hash.
// Dedup-pool contents depend only on the size and the pool index, so two
// writes of the same pool entry are byte-identical.
func (g *generator) content(key int, serial uint64, dup int) ([]byte, [32]byte) {
	size := g.keySize(key)
	if g.w.bulkSize > 0 {
		if g.bulk == nil {
			for v := range bulkVariants {
				buf := make([]byte, size)
				fill(buf, rand.New(rand.NewPCG(g.seed, uint64(v))))
				g.bulk = append(g.bulk, buf)
				g.bulkHash = append(g.bulkHash, sha256.Sum256(buf))
			}
		}
		v := int(serial % bulkVariants)
		return g.bulk[v], g.bulkHash[v]
	}
	var src *rand.Rand
	if dup >= 0 {
		src = rand.New(rand.NewPCG(g.seed^0xd0d0, uint64(size)<<8|uint64(dup)))
	} else {
		src = rand.New(rand.NewPCG(g.seed, serial<<20|uint64(key)))
	}
	buf := make([]byte, size)
	fill(buf, src)
	return buf, sha256.Sum256(buf)
}

func fill(buf []byte, src *rand.Rand) {
	i := 0
	for ; i+8 <= len(buf); i += 8 {
		v := src.Uint64()
		buf[i], buf[i+1], buf[i+2], buf[i+3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
		buf[i+4], buf[i+5], buf[i+6], buf[i+7] = byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56)
	}
	for ; i < len(buf); i++ {
		buf[i] = byte(src.Uint32())
	}
}

// schedule returns the open-loop due times (ns after start) of a window:
// a Poisson process at the workload's rate.
func (g *generator) schedule(window time.Duration) []int64 {
	var out []int64
	var t float64
	for {
		t += g.rng.ExpFloat64() / g.w.rate * 1e9
		if t >= float64(window) {
			return out
		}
		out = append(out, int64(t))
	}
}
