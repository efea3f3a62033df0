package main

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"slices"
	"strings"

	"repro/internal/core"
	"repro/internal/query"
	"repro/internal/workload"
)

// Every input a run sends is generated here from the --seed argument,
// before any timing starts; the program under test only ever sees the
// generated requests and data.

// Stream identifiers keep the workloads' random sequences independent
// of each other for one seed.
const (
	streamHot = iota + 1
	streamCold
	streamEngine
)

func newRand(seed uint64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

// aliases are the short spellings the request's algorithm field
// accepts for the paper algorithms. The strategy field takes registry
// names only.
var aliases = map[string]string{
	string(core.PlanBouquet):  "pb",
	string(core.SpillBound):   "sb",
	string(core.AlignedBound): "ab",
}

// key is one /discover identity: workload, strategy and true location.
type key struct {
	Workload string
	Strategy string
	QA       int32
}

// gridPoints is the workload's grid size at its spec resolution.
func gridPoints(name string) int32 {
	spec, err := workload.ByName(name)
	if err != nil {
		panic(err) // names come from the registry
	}
	n := int32(1)
	for i := 0; i < spec.D; i++ {
		n *= int32(spec.Res)
	}
	return n
}

// canonicalBody is the request body a client normally sends.
func (k key) canonicalBody() []byte {
	return fmt.Appendf(nil, `{"workload":%q,"strategy":%q,"qa":%d}`, k.Workload, k.Strategy, k.QA)
}

// respelledBody names the same request with other bytes but the same
// outcome key: a different field order, and for the paper algorithms
// the algorithm field's alias instead of the strategy field.
func (k key) respelledBody() []byte {
	if alias, ok := aliases[k.Strategy]; ok {
		return fmt.Appendf(nil, `{"qa":%d,"algorithm":%q,"workload":%q}`, k.QA, alias, k.Workload)
	}
	return fmt.Appendf(nil, `{"qa":%d,"strategy":%q,"workload":%q}`, k.QA, k.Strategy, k.Workload)
}

// blocks returns n picks from items in seeded blocks: each block of
// len(items) consecutive picks is a fresh permutation of items, so any
// stretch of whole blocks holds the same mix whatever the seed.
func blocks[T any](r *rand.Rand, items []T, n int) []T {
	out := make([]T, 0, n)
	for len(out) < n {
		perm := r.Perm(len(items))
		for _, i := range perm {
			if len(out) == n {
				break
			}
			out = append(out, items[i])
		}
	}
	return out
}

// --- serve-hot ---------------------------------------------------------

// hotWorkloads are the pinned, eagerly built workloads of serve-hot.
var hotWorkloads = []string{"EQ", "4D_Q91", "6D_Q91"}

const (
	// hotKeysPerPair is how many distinct keys each (workload, strategy)
	// pair gets; hotKeysCostly applies to 6D_Q91 AlignedBound, whose
	// discoveries take 10-100ms and dominate the warm-up.
	hotKeysPerPair = 400
	hotKeysCostly  = 84
	hotStream      = 400000 // requests generated for the timed phases
	hotZipfS       = 1.2
	// Every hotRespellEvery-th request is re-spelled: which requests take
	// the server's slower decode path must not depend on which keys a
	// seed makes popular.
	hotRespellEvery = 4
)

// hotReq is one serve-hot request: an index into hotPlan.Keys and its
// spelling. The stream stays compact (bodies are shared per key), so
// the benchmark's own heap does not slow the server's collector.
type hotReq struct {
	Key int32
	// Repeat is set when the key was already sent (in the warm-up or
	// earlier in the stream).
	Repeat  bool
	Respell bool
}

// hotPlan is serve-hot's generated input.
type hotPlan struct {
	Keys   []key
	Warm   []int // key indexes sent in the warm-up, each warmArrivals times
	Stream []hotReq
	// bodies[i] holds key i's canonical and re-spelled body.
	bodies [][2][]byte
}

// body returns the bytes request q sends.
func (p *hotPlan) body(q hotReq) []byte {
	if q.Respell {
		return p.bodies[q.Key][1]
	}
	return p.bodies[q.Key][0]
}

// warmArrivals is how many times the warm-up sends each key: the
// outcome cache's doorkeeper admits a key on its second miss, and the
// third arrival then hits.
const warmArrivals = 3

// genHot draws hotKeysPerPair keys for every (workload, strategy) pair,
// ranks them in a seeded order, and draws the stream from a Zipf law
// over the ranks. The warm-up sends every key: a miss costs from
// microseconds to a hundred milliseconds depending on the key, and the
// few misses a seed would leave in the timed phases would decide its
// tail latency. Miss-path work is serve-cold's subject.
func genHot(seed uint64) *hotPlan {
	r := newRand(seed, streamHot)
	p := &hotPlan{}
	for _, w := range hotWorkloads {
		for _, st := range core.Strategies() {
			n := hotKeysPerPair
			if w == "6D_Q91" && st == string(core.AlignedBound) {
				n = hotKeysCostly
			}
			seen := map[int32]bool{}
			for len(seen) < n {
				qa := r.Int32N(gridPoints(w))
				if !seen[qa] {
					seen[qa] = true
					p.Keys = append(p.Keys, key{Workload: w, Strategy: st, QA: qa})
				}
			}
		}
	}
	r.Shuffle(len(p.Keys), func(i, j int) { p.Keys[i], p.Keys[j] = p.Keys[j], p.Keys[i] })
	sent := make([]bool, len(p.Keys))
	for i, k := range p.Keys {
		p.Warm = append(p.Warm, i)
		sent[i] = true
		p.bodies = append(p.bodies, [2][]byte{k.canonicalBody(), k.respelledBody()})
	}
	z := rand.NewZipf(r, hotZipfS, 1, uint64(len(p.Keys)-1))
	p.Stream = make([]hotReq, hotStream)
	for i := range p.Stream {
		ki := int(z.Uint64())
		req := hotReq{Key: int32(ki), Repeat: sent[ki]}
		req.Respell = req.Repeat && i%hotRespellEvery == hotRespellEvery-1
		sent[ki] = true
		p.Stream[i] = req
	}
	return p
}

// repeatShare is the fraction of the first n stream requests whose key
// was already sent, and the fraction of those repeats re-spelled.
func (p *hotPlan) repeatShare(n int) (repeat, respelled ratio) {
	if n > len(p.Stream) {
		n = len(p.Stream)
	}
	repeat.Base = float64(n)
	for _, q := range p.Stream[:n] {
		if q.Repeat {
			repeat.Num++
			if q.Respell {
				respelled.Num++
			}
		}
	}
	respelled.Base = repeat.Num
	return repeat, respelled
}

// --- serve-cold --------------------------------------------------------

// coldPinned is serve-cold's one pinned (lazy) workload; every other
// registered spec is an on-demand tenant.
const coldPinned = "6D_Q91"

const (
	coldStream = 10000
	// coldRunLen is how many consecutive tenant requests one visit to a
	// tenant makes: four per strategy, in registry order, so each visit
	// does the same compile-time work.
	coldRunLen = 24
	// Half the requests go to the pinned workload, two in every four,
	// so that both replicas receive them.
	coldPinnedOf4 = 2
)

// coldReq is one serve-cold request.
type coldReq struct {
	Key     key
	BySQL   bool // identify the tenant by its SQL text
	Replica int  // replica the client sends it to
	Body    []byte
}

// coldPlan is serve-cold's generated input.
type coldPlan struct {
	// Tenants is the seeded order in which the stream visits the
	// on-demand tenants, cyclically. On the traced run's cache-pressure
	// ring every visit recompiles.
	Tenants []string
	Stream  []coldReq
}

// uniqueSQL reports which registered specs are the only owner of their
// SQL body, so the sql field alone identifies them.
func uniqueSQL() map[string]bool {
	bySig := map[uint64][]string{}
	for _, name := range workload.Names() {
		spec, _ := workload.ByName(name)
		sig, err := query.Sign(spec.SQL)
		if err != nil {
			continue
		}
		bySig[sig.Hash] = append(bySig[sig.Hash], name)
	}
	out := map[string]bool{}
	for _, names := range bySig {
		if len(names) == 1 {
			out[names[0]] = true
		}
	}
	return out
}

// heuristicGiveUps are the grid points on which a heuristic strategy
// gives up ("did not complete within 64 budget rungs"): parqo,
// robustmap and adaptiveswitch each fail on these seven points of
// 6D_Q18 at scale 1.0, the high corner of the grid, and on no point of
// any other tenant. They were found once by running every heuristic on
// every point of every tenant, and are fixed data here, so the stream
// depends on the seed alone. The stream skips them because every
// operation of a run must be able to succeed; the heuristics stay in
// the mix on every other point of 6D_Q18, and a change that makes
// another point fail shows in failed_frac.
var heuristicGiveUps = map[string][]int32{
	"6D_Q18": {12499, 14999, 15499, 15599, 15619, 15623, 15624},
}

// drawable reports whether the serve-cold stream may send key k.
func drawable(k key) bool {
	if _, paper := aliases[k.Strategy]; paper {
		return true
	}
	return !slices.Contains(heuristicGiveUps[k.Workload], k.QA)
}

// genCold draws the serve-cold stream.
func genCold(seed uint64) *coldPlan {
	r := newRand(seed, streamCold)
	unique := uniqueSQL()
	p := &coldPlan{}
	for _, name := range workload.Names() {
		if name != coldPinned {
			p.Tenants = append(p.Tenants, name)
		}
	}
	r.Shuffle(len(p.Tenants), func(i, j int) { p.Tenants[i], p.Tenants[j] = p.Tenants[j], p.Tenants[i] })
	strategies := core.Strategies()
	seen := map[key]bool{}
	pinned, tenantReqs := 0, 0
	for i := 0; i < coldStream; i++ {
		var k key
		if i%4 < coldPinnedOf4 {
			k = key{Workload: coldPinned, Strategy: strategies[pinned%len(strategies)]}
			pinned++
		} else {
			// Strategies in registry order: every visit does the same
			// compile-time work (first PlanBouquet's reduction, then
			// each strategy's preparation) whatever the seed.
			k = key{Workload: p.Tenants[(tenantReqs/coldRunLen)%len(p.Tenants)], Strategy: strategies[tenantReqs%len(strategies)]}
			tenantReqs++
		}
		for tries := 0; ; tries++ {
			k.QA = r.Int32N(gridPoints(k.Workload))
			if !seen[k] && drawable(k) {
				break // every request is a fresh key
			}
			if tries == 1<<16 {
				panic(fmt.Sprintf("serve-cold stream exhausts the keys of %s/%s", k.Workload, k.Strategy))
			}
		}
		seen[k] = true
		q := coldReq{Key: k, Replica: i % 2}
		if unique[k.Workload] && r.IntN(2) == 0 {
			q.BySQL = true
			spec, _ := workload.ByName(k.Workload)
			q.Body = fmt.Appendf(nil, `{"sql":%q,"strategy":%q,"qa":%d}`, compactSQL(spec.SQL), k.Strategy, k.QA)
		} else {
			q.Body = k.canonicalBody()
		}
		p.Stream = append(p.Stream, q)
	}
	return p
}

// compactSQL folds the spec's SQL layout whitespace, as a client
// would send it on one line.
func compactSQL(sql string) string { return strings.Join(strings.Fields(sql), " ") }

// --- engine ------------------------------------------------------------

// engineQueries are the engine workload's queries, run on generated
// data.
var engineQueries = []string{"EQ", "4D_Q91", "5D_Q19"}

const (
	engineSeq = 20000
	// engineDataSeed fixes the generated data. The data decides the
	// true selectivities, and with them how far every discovery
	// climbs: across data seeds the same sequence ran 3x faster or
	// slower, which no run length averages out. The workload seed
	// drives the (query, strategy) sequence.
	engineDataSeed = 2016
)

// enginePlan is the engine workload's generated input.
type enginePlan struct {
	DataSeed uint64
	Seq      []key // QA is unused: the data fixes the true location
}

// genEngine draws the (query, strategy) sequence in seeded blocks that
// each run every pair once plus SpillBound on 5D_Q19 a second time.
// Pair latencies cluster, and with an even block the median would fall
// in the gap between two clusters and jump across it from run to run;
// an odd block puts it inside one pair's latencies.
func genEngine(seed uint64) *enginePlan {
	r := newRand(seed, streamEngine)
	var pairs []key
	for _, q := range engineQueries {
		for _, st := range core.Strategies() {
			pairs = append(pairs, key{Workload: q, Strategy: st})
		}
	}
	pairs = append(pairs, key{Workload: "5D_Q19", Strategy: string(core.SpillBound)})
	return &enginePlan{DataSeed: engineDataSeed, Seq: blocks(r, pairs, engineSeq)}
}

// --- serialization (for the determinism tests) ---------------------------

func (p *hotPlan) bytes() []byte {
	var b bytes.Buffer
	for _, i := range p.Warm {
		b.Write(p.Keys[i].canonicalBody())
		b.WriteByte('\n')
	}
	for _, q := range p.Stream {
		b.Write(p.body(q))
		b.WriteByte('\n')
	}
	return b.Bytes()
}

func (p *coldPlan) bytes() []byte {
	var b bytes.Buffer
	b.WriteString(strings.Join(p.Tenants, ","))
	b.WriteByte('\n')
	for _, q := range p.Stream {
		fmt.Fprintf(&b, "%d ", q.Replica)
		b.Write(q.Body)
		b.WriteByte('\n')
	}
	return b.Bytes()
}

func (p *enginePlan) bytes() []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "data %d\n", p.DataSeed)
	for _, k := range p.Seq {
		fmt.Fprintf(&b, "%s %s\n", k.Workload, k.Strategy)
	}
	return b.Bytes()
}
