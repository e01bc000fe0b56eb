package main

import (
	"math/rand"
	"sort"
)

// The served-mix admission mix. One round is 16 submissions: 4 first-seen
// specs (computed and committed — the write path), 2 duplicates submitted
// while their original is still in flight (coalesced), 8 duplicates of a
// spec the server's LRU still holds, and 2 duplicates of a spec evicted
// long ago (reloaded from the store — the read path). So exactly a
// quarter of every round is recomputed.
const (
	roundSubmissions = 16
	roundPairs       = 2 // a first-seen spec plus its coalesced duplicate
	roundColds       = 2 // a first-seen spec alone
	roundRecents     = 8
	roundReloads     = 2

	// cacheSize is the server's LRU capacity.
	cacheSize = 16
	// preloadSpecs are computed during set-up so the first timed round
	// already finds specs the LRU has evicted evictMargin inserts ago.
	preloadSpecs = cacheSize + evictMargin + 4
	// maxClients bounds the full arm's client count. A computed spec lands
	// in the server's LRU when its campaign completes, not where the
	// schedule put it, so the generator keeps a margin at both ends of its
	// model. At the near end, at most one late completion per other client
	// overtakes an entry: LRU duplicates come from the newest recentDepth
	// entries only. At the far end a late spec is younger in the server
	// than in the model by every insert the other clients made meanwhile —
	// the store reloads of a batch and their own computed specs, about
	// eight at worst — so it leaves the server's LRU that many inserts after
	// it left the model's: store reloads target specs evicted at least
	// evictMargin inserts ago.
	maxClients  = 4
	recentDepth = cacheSize - 2*maxClients
	evictMargin = 12
	// recentGap keeps an LRU duplicate away from the step that inserted its
	// spec, so a client rarely has to wait for another client's campaign.
	recentGap = 2 * maxClients
	// maxDriftFrac is the share of an arm's submissions the server may
	// absorb by another mechanism than scheduled before the run fails.
	// Drift is timing — a client stalled between a first-seen spec and its
	// coalescing duplicate — and rare; a mechanism that stopped working
	// moves its whole share of the mix, 12.5 % at least.
	maxDriftFrac = 0.05
)

type stepKind int

const (
	stepCold   stepKind = iota // first-seen spec: computed
	stepPair                   // first-seen spec and, at once, its duplicate: computed + coalesced
	stepRecent                 // duplicate of a spec in the LRU: cache hit
	stepReload                 // duplicate of an evicted spec: store hit
)

func (k stepKind) String() string {
	return [...]string{"cold", "pair", "recent", "reload"}[k]
}

// step is one closed-loop action of a client.
type step struct {
	kind stepKind
	// spec identifies the campaign; its seed and method derive from it.
	spec int
	// after is the index, in the same batch, of the step that puts spec
	// into the server's LRU and so must complete first; -1 when an
	// earlier batch did.
	after int
}

// counters are the /v1/stats figures a schedule determines exactly.
type counters struct {
	submits, jobsDone, coalesced, cacheHits, storeHits int64
}

// absorbed is how many submissions cost no computation.
func (c counters) absorbed() int64 { return c.coalesced + c.cacheHits + c.storeHits }

// scheduleGen generates the served-mix schedule from a seed, batch by
// batch, beside a model of the server's LRU that tells it which specs a
// duplicate will find cached and which only in the store.
type scheduleGen struct {
	rng      *rand.Rand
	lru      []int       // model LRU, most recent first
	evicted  map[int]int // spec → value of inserts when the model evicted it
	inserts  int
	nextSpec int
	expect   counters
}

func newScheduleGen(seed int64) *scheduleGen {
	return &scheduleGen{rng: rand.New(rand.NewSource(seed)), evicted: make(map[int]int)}
}

// insert puts spec at the front of the model LRU, evicting beyond
// capacity.
func (g *scheduleGen) insert(spec int) {
	g.inserts++
	delete(g.evicted, spec)
	g.lru = append([]int{spec}, g.lru...)
	for len(g.lru) > cacheSize {
		g.evicted[g.lru[len(g.lru)-1]] = g.inserts
		g.lru = g.lru[:len(g.lru)-1]
	}
}

// touch moves a cached spec to the front.
func (g *scheduleGen) touch(spec int) {
	for i, s := range g.lru {
		if s == spec {
			copy(g.lru[1:i+1], g.lru[:i])
			g.lru[0] = spec
			return
		}
	}
}

// preload returns the specs set-up computes before timing.
func (g *scheduleGen) preload() []int {
	specs := make([]int, preloadSpecs)
	for i := range specs {
		specs[i] = g.fresh()
	}
	return specs
}

// fresh allocates a first-seen spec and accounts for its computation.
func (g *scheduleGen) fresh() int {
	spec := g.nextSpec
	g.nextSpec++
	g.insert(spec)
	g.expect.submits++
	g.expect.jobsDone++
	return spec
}

// batch generates the next rounds rounds as one batch of steps. Clients
// take the steps in order; dependencies never point outside the batch
// because a batch ends with every step complete.
func (g *scheduleGen) batch(rounds int) []step {
	var steps []step
	insertedAt := make(map[int]int) // spec → step of this batch that inserted it
	for r := 0; r < rounds; r++ {
		kinds := make([]stepKind, 0, roundPairs+roundColds+roundRecents+roundReloads)
		for _, k := range []struct {
			kind stepKind
			n    int
		}{{stepPair, roundPairs}, {stepCold, roundColds}, {stepRecent, roundRecents}, {stepReload, roundReloads}} {
			for i := 0; i < k.n; i++ {
				kinds = append(kinds, k.kind)
			}
		}
		g.rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
		for _, kind := range kinds {
			st := step{kind: kind, after: -1}
			switch kind {
			case stepCold, stepPair:
				st.spec = g.fresh()
				insertedAt[st.spec] = len(steps)
				if kind == stepPair {
					g.expect.submits++
					g.expect.coalesced++
				}
			case stepRecent:
				st.spec = g.pickRecent(insertedAt, len(steps))
				if at, ok := insertedAt[st.spec]; ok {
					st.after = at
				}
				g.touch(st.spec)
				g.expect.submits++
				g.expect.cacheHits++
			case stepReload:
				st.spec = g.pickEvicted()
				g.insert(st.spec)
				insertedAt[st.spec] = len(steps)
				g.expect.submits++
				g.expect.storeHits++
			}
			steps = append(steps, st)
		}
	}
	return steps
}

// pickRecent chooses among the newest recentDepth entries of the model
// LRU, preferring specs inserted at least recentGap steps ago.
func (g *scheduleGen) pickRecent(insertedAt map[int]int, now int) int {
	top := g.lru[:recentDepth]
	var settled []int
	for _, spec := range top {
		if at, ok := insertedAt[spec]; !ok || now-at >= recentGap {
			settled = append(settled, spec)
		}
	}
	if len(settled) > 0 {
		top = settled
	}
	return top[g.rng.Intn(len(top))]
}

// pickEvicted chooses among the specs the model evicted at least
// evictMargin inserts ago. The candidates are sorted before the draw so
// the pick is a pure function of the seed, not of map order.
func (g *scheduleGen) pickEvicted() int {
	var candidates []int
	for spec, at := range g.evicted {
		if g.inserts-at >= evictMargin {
			candidates = append(candidates, spec)
		}
	}
	sort.Ints(candidates)
	return candidates[g.rng.Intn(len(candidates))]
}
