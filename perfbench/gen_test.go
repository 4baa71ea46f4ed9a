package main

import (
	"bytes"
	"reflect"
	"testing"
)

func testParams(t *testing.T) *params {
	t.Helper()
	p, err := loadParams()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func serveTestPlan(p *params, seed int64, uniN int) servePlan {
	c := p.ServeZipf
	return planServe(seed, uniN, c.Universe.stratum(), c.Nodes, 2, 5000, c.ZipfSkew, c.RespelledShare, c.ConditionalShare, c.PopulateShare)
}

func TestUniverseIsReproducibleAndDistinct(t *testing.T) {
	u := testParams(t).ServeZipf.Universe
	a, b := buildUniverse(u), buildUniverse(u)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("universe differs between builds")
	}
	want := len(u.Platforms) * len(u.Models) * len(u.Layers) * len(u.Batches) * len(u.Precisions)
	if len(a) != want {
		t.Fatalf("universe has %d points, want %d", len(a), want)
	}
	seen := map[runReq]bool{}
	for _, r := range a {
		if seen[r] {
			t.Fatalf("duplicate point %+v", r)
		}
		seen[r] = true
	}
}

func TestServePlanIsSeeded(t *testing.T) {
	p := testParams(t)
	n := len(buildUniverse(p.ServeZipf.Universe))
	a, b := serveTestPlan(p, 7, n), serveTestPlan(p, 7, n)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different plans")
	}
	if c := serveTestPlan(p, 8, n); reflect.DeepEqual(a.Conns, c.Conns) || reflect.DeepEqual(a.Populate, c.Populate) {
		t.Fatal("different seeds gave the same op sequence or populate split")
	}
}

func TestPopulateSplit(t *testing.T) {
	p := testParams(t)
	n := len(buildUniverse(p.ServeZipf.Universe))
	plan := serveTestPlan(p, 3, n)
	seen := map[int]bool{}
	total := 0
	for _, idx := range plan.Populate {
		for _, u := range idx {
			if seen[u] || u < 0 || u >= n {
				t.Fatalf("populate index %d repeated or out of range", u)
			}
			seen[u] = true
		}
		total += len(idx)
		if len(idx) == 0 {
			t.Fatal("a node populated nothing")
		}
	}
	if want := (n + 4) / 5; total != want {
		t.Fatalf("populated %d specs, want %d", total, want)
	}
}

// Every op on a spec goes through one connection, and a conditional op
// only follows an earlier op on the same spec there.
func TestServePlanConnectionAffinity(t *testing.T) {
	p := testParams(t)
	n := len(buildUniverse(p.ServeZipf.Universe))
	plan := serveTestPlan(p, 5, n)
	owner := map[int]int{}
	var ops, cond, respelled int
	for c, list := range plan.Conns {
		seen := map[int]bool{}
		for _, op := range list {
			if o, ok := owner[op.Spec]; ok && o != c {
				t.Fatalf("spec %d on connections %d and %d", op.Spec, o, c)
			}
			owner[op.Spec] = c
			if op.Conditional && !seen[op.Spec] {
				t.Fatalf("conditional op on spec %d before any answer for it", op.Spec)
			}
			seen[op.Spec] = true
			ops++
			if op.Conditional {
				cond++
			}
			if op.Variant != 0 {
				respelled++
			}
		}
	}
	if ops != 5000 || cond == 0 || respelled == 0 {
		t.Fatalf("ops %d, conditional %d, respelled %d", ops, cond, respelled)
	}
}

func TestSweepPlanIsSeededAndCold(t *testing.T) {
	c := testParams(t).SweepCold
	plan := func(seed int64) []sweepOp {
		ops, err := planSweep(seed, 600, c)
		if err != nil {
			t.Fatal(err)
		}
		return ops
	}
	a := plan(9)
	if !reflect.DeepEqual(a, plan(9)) {
		t.Fatal("same seed gave different grids")
	}
	if reflect.DeepEqual(a, plan(10)) {
		t.Fatal("different seeds gave the same grids")
	}
	seen := map[runReq]bool{}
	platforms := map[string]bool{}
	jobs, large := 0, 0
	for i, op := range a {
		want := c.SweepGrid.points()
		switch {
		case op.Large:
			want = c.LargeJobGrid.points()
			large++
		case op.Job:
			want = c.JobGrid.points()
			jobs++
		}
		if op.Large && !op.Job {
			t.Fatalf("op %d is large but not a job", i)
		}
		if len(op.Reqs) != want {
			t.Fatalf("op %d has %d points, want %d", i, len(op.Reqs), want)
		}
		for _, r := range op.Reqs {
			if seen[r] {
				t.Fatalf("op %d repeats point %+v", i, r)
			}
			seen[r] = true
			platforms[r.Platform] = true
		}
	}
	if len(platforms) != 4 || jobs == 0 || large != 600/c.LargeJobEvery {
		t.Fatalf("platforms %v, jobs %d, large jobs %d", platforms, jobs, large)
	}
	// A large job spans more than one 256-point job chunk.
	if c.LargeJobGrid.points() <= 256 {
		t.Fatalf("large job has %d points, fits one chunk", c.LargeJobGrid.points())
	}
}

// Every spelling of a point is the same request to the daemon: the
// cold in-process server answers all of them with the same bytes, and
// the ETag is the point's store address.
func TestSpellingsAnswerAlike(t *testing.T) {
	uni := buildUniverse(testParams(t).ServeZipf.Universe)
	ref, err := newReference()
	if err != nil {
		t.Fatal(err)
	}
	defer ref.close()
	for _, k := range sample(newRNG(1, streamGraph), 40, len(uni)) {
		r := uni[k]
		want, etag, err := ref.post("/v1/run", canonicalBody(r))
		if err != nil {
			t.Fatal(err)
		}
		addr, err := r.address()
		if err != nil {
			t.Fatal(err)
		}
		if etag != `"`+addr+`"` {
			t.Fatalf("%+v: ETag %s, address %s", r, etag, addr)
		}
		for v := uint64(1); v < 6; v++ {
			body := respelledBody(r, v)
			if bytes.Equal(body, canonicalBody(r)) {
				t.Fatalf("variant %d is the canonical spelling", v)
			}
			got, _, err := ref.post("/v1/run", body)
			if err != nil {
				t.Fatalf("%s: %v", body, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s answered differently from %s", body, canonicalBody(r))
			}
		}
	}
}
