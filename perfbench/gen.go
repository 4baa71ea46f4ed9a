package main

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"strconv"
)

// newRNG derives an independent deterministic stream per purpose, so
// adding a draw to one generator never shifts another's sequence.
func newRNG(seed int64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(seed), stream))
}

const (
	streamOps = iota + 1
	streamSweep
	streamGraph  // bare-compile sample
	streamWrite  // store-write sample
	streamFetch  // peer-fetch sample
	streamVerify // sweep-cold verification sample
)

// buildUniverse expands the serve-zipf spec universe in a fixed order.
func buildUniverse(u universe) []runReq {
	var out []runReq
	for _, pl := range u.Platforms {
		name, mode := parsePlatform(pl)
		for _, m := range u.Models {
			for _, l := range u.Layers {
				for _, b := range u.Batches {
					for _, pr := range u.Precisions {
						out = append(out, runReq{Platform: name, Mode: mode, Model: m, Layers: l, Batch: b, Precision: pr})
					}
				}
			}
		}
	}
	return out
}

// canonicalBody is a point's shortest spelling: fields in the daemon's
// struct order, defaults omitted.
func canonicalBody(r runReq) []byte {
	var b bytes.Buffer
	b.WriteString(`{"platform":` + strconv.Quote(r.Platform) + `,"model":` + strconv.Quote(r.Model))
	if r.Layers > 0 {
		b.WriteString(`,"layers":` + strconv.Itoa(r.Layers))
	}
	if r.Batch > 0 {
		b.WriteString(`,"batch":` + strconv.Itoa(r.Batch))
	}
	if r.Seq > 0 {
		b.WriteString(`,"seq":` + strconv.Itoa(r.Seq))
	}
	if r.Precision != "" {
		b.WriteString(`,"precision":` + strconv.Quote(r.Precision))
	}
	if r.Mode != "" {
		b.WriteString(`,"mode":` + strconv.Quote(r.Mode))
	}
	if r.TP > 0 {
		b.WriteString(`,"tensor_parallel":` + strconv.Itoa(r.TP))
	}
	b.WriteByte('}')
	return b.Bytes()
}

// respelledBody spells the same point differently: every field the
// canonical form carries, plus a variant-chosen subset of defaults
// written out explicitly, in a variant-chosen field order. Distinct
// variants almost always give distinct bytes, so a re-spelled request
// reaches the canonical-key L0 rather than the verbatim-body one.
func respelledBody(r runReq, variant uint64) []byte {
	rng := rand.New(rand.NewPCG(variant, 0x5e11))
	fields := [][2]string{
		{"platform", strconv.Quote(r.Platform)},
		{"model", strconv.Quote(r.Model)},
		{"batch", strconv.Itoa(cmp.Or(r.Batch, 512))},
		{"seq", strconv.Itoa(cmp.Or(r.Seq, 1024))},
		{"precision", strconv.Quote(cmp.Or(r.Precision, "FP16"))},
		{"layers", strconv.Itoa(r.Layers)},
		{"mode", strconv.Quote(r.Mode)},
		{"tensor_parallel", strconv.Itoa(r.TP)},
	}
	for _, d := range [][2]string{{"data_parallel", "0"}, {"pipeline_parallel", "0"}, {"weight_streaming", "false"}} {
		if rng.IntN(2) == 0 {
			fields = append(fields, d)
		}
	}
	rng.Shuffle(len(fields), func(i, j int) { fields[i], fields[j] = fields[j], fields[i] })
	var b bytes.Buffer
	b.WriteByte('{')
	for i, f := range fields {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Quote(f[0]) + ":" + f[1])
	}
	b.WriteByte('}')
	return b.Bytes()
}

// serveOp is one timed /v1/run request of serve-zipf.
type serveOp struct {
	Spec        int    // universe index
	Node        int    // target node
	Variant     uint64 // 0: canonical spelling; else the re-spelling variant
	Conditional bool   // send If-None-Match with the ETag this client got earlier
}

// servePlan is serve-zipf's whole seeded input: what to populate where,
// and each client's closed-loop op list.
type servePlan struct {
	Populate [][]int     // per node: universe indices computed before the restart
	Conns    [][]serveOp // per client connection, in send order
}

// planServe draws the populate split and the op sequence. The seed
// decides which specs are popular, populated and where; the make-up
// of each stays fixed. Popularity ranks deal the universe's strata
// (runs of stratum consecutive specs, which differ only in their cheap
// axes) round-robin, so every run of ranks holds the same mix of
// platforms, models and depths, and the populated share is a fixed
// pattern over ranks.
//
// Every op on one spec goes through the same client connection (specs
// are dealt to connections largest-count first), so "the ETag the
// client got earlier" is always in hand when a conditional op is sent,
// and each op's rung does not depend on how the clients interleave.
func planServe(seed int64, nUniverse, stratum, nodes, conns, nOps int, skew, respelled, conditional, populate float64) servePlan {
	var plan servePlan
	rng := newRNG(seed, streamOps)
	nStrata := nUniverse / stratum
	order := rng.Perm(nStrata)
	members := make([][]int, nStrata)
	for s := range members {
		members[s] = rng.Perm(stratum)
	}
	rank := make([]int, 0, nUniverse) // popularity rank -> universe index
	for b := 0; b < stratum; b++ {
		for _, s := range order {
			rank = append(rank, s*stratum+members[s][b])
		}
	}

	plan.Populate = make([][]int, nodes)
	every := int(math.Round(1 / populate))
	for r, u := range rank {
		if r%every == 0 {
			n := rng.IntN(nodes)
			plan.Populate[n] = append(plan.Populate[n], u)
		}
	}

	// P(rank k) ∝ (k+1)^-skew.
	z := rand.NewZipf(rng, skew, 1, uint64(nUniverse-1))
	ops := make([]serveOp, nOps)
	count := map[int]int{}
	for i := range ops {
		op := serveOp{Spec: rank[z.Uint64()], Node: rng.IntN(nodes)}
		if rng.Float64() < respelled {
			op.Variant = rng.Uint64() | 1
		}
		op.Conditional = rng.Float64() < conditional
		ops[i] = op
		count[op.Spec]++
	}

	specs := make([]int, 0, len(count))
	for s := range count {
		specs = append(specs, s)
	}
	sort.Slice(specs, func(i, j int) bool {
		if count[specs[i]] != count[specs[j]] {
			return count[specs[i]] > count[specs[j]]
		}
		return specs[i] < specs[j]
	})
	load := make([]int, conns)
	owner := map[int]int{}
	for _, s := range specs {
		c := 0
		for k := 1; k < conns; k++ {
			if load[k] < load[c] {
				c = k
			}
		}
		owner[s] = c
		load[c] += count[s]
	}
	plan.Conns = make([][]serveOp, conns)
	seen := map[int]bool{}
	for _, op := range ops {
		// A conditional op needs an earlier answer for its spec; the
		// first op on a spec is always sent plain.
		op.Conditional = op.Conditional && seen[op.Spec]
		seen[op.Spec] = true
		c := owner[op.Spec]
		plan.Conns[c] = append(plan.Conns[c], op)
	}
	return plan
}

// sweepOp is one timed sweep-cold op: a design-space grid on one
// platform, sent as a synchronous sweep or as an async job.
type sweepOp struct {
	Job   bool
	Large bool // a job of several chunks
	Body  []byte
	Reqs  []runReq // the grid's points, for sampling direct calls
}

// sweepBody is the /v1/sweep and /v1/jobs wire form of a grid.
type sweepBody struct {
	Platform    string   `json:"platform"`
	Model       string   `json:"model"`
	Mode        string   `json:"mode,omitempty"`
	LayerCounts []int    `json:"layer_counts"`
	Batches     []int    `json:"batches"`
	Precisions  []string `json:"precisions"`
}

// planSweep builds sweep-cold's grids. What an op costs is fixed by
// its index: platforms and models rotate, every job_every-th op is a
// job, the op halfway through each large_job_every ops is a large job
// (more points than one 256-point job chunk, so the job runs several
// chunks), and the layer axis is fixed per kind. The seed draws only
// the batch and precision axes — redrawn until no point of the grid was
// requested by an earlier op, so every point is a cold simulation.
func planSweep(seed int64, nOps int, c sweepCfg) ([]sweepOp, error) {
	rng := newRNG(seed, streamSweep)
	seen := map[runReq]bool{}
	ops := make([]sweepOp, nOps)
	for i := range ops {
		name, mode := parsePlatform(c.Platforms[i%len(c.Platforms)])
		large := c.LargeJobEvery > 0 && i%c.LargeJobEvery == c.LargeJobEvery/2
		job := large || (c.JobEvery > 0 && (i+1)%c.JobEvery == 0)
		g := c.SweepGrid
		switch {
		case large:
			g = c.LargeJobGrid
		case job:
			g = c.JobGrid
		}
		body := sweepBody{Platform: name, Mode: mode, Model: c.Models[(i/len(c.Platforms))%len(c.Models)], LayerCounts: g.Layers}
		var reqs []runReq
		for attempt := 0; ; attempt++ {
			if attempt == 100 {
				return nil, fmt.Errorf("op %d: no unrequested grid after %d draws", i, attempt)
			}
			body.Batches = pick(rng, g.Batches, c.MaxBatch)
			body.Precisions = body.Precisions[:0]
			for _, k := range pick(rng, g.Precisions, len(c.Precisions)) {
				body.Precisions = append(body.Precisions, c.Precisions[k-1])
			}
			reqs = reqs[:0]
			fresh := true
			for _, l := range body.LayerCounts {
				for _, b := range body.Batches {
					for _, p := range body.Precisions {
						r := runReq{Platform: name, Mode: mode, Model: body.Model, Layers: l, Batch: b, Precision: p}
						fresh = fresh && !seen[r]
						reqs = append(reqs, r)
					}
				}
			}
			if fresh {
				break
			}
		}
		for _, r := range reqs {
			seen[r] = true
		}
		data, err := json.Marshal(body)
		if err != nil {
			return nil, err
		}
		ops[i] = sweepOp{Job: job, Large: large, Body: data, Reqs: append([]runReq(nil), reqs...)}
	}
	return ops, nil
}

// pick draws k distinct values from 1..n in ascending order.
func pick(rng *rand.Rand, k, n int) []int {
	set := map[int]bool{}
	for len(set) < k {
		set[1+rng.IntN(n)] = true
	}
	out := make([]int, 0, k)
	for v := range set {
		out = append(out, v)
	}
	sort.Ints(out)
	return out
}

// sample draws min(k, n) distinct indices in [0, n), ascending.
func sample(rng *rand.Rand, k, n int) []int {
	idx := rng.Perm(n)[:min(k, n)]
	sort.Ints(idx)
	return idx
}
