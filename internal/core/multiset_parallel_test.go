package core

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

func TestChunkBounds(t *testing.T) {
	for _, tc := range []struct {
		n, workers, minChunk int
		wantChunks           int
	}{
		{0, 4, 256, 1},
		{1, 4, 256, 1},
		{255, 4, 256, 1},
		{256, 4, 256, 1},
		{257, 4, 256, 2},
		{1024, 4, 256, 4},
		{1024, 1, 256, 1},
		{10000, 2, 256, 2},
		{10000, 0, 256, 1}, // workers<1 -> NumCPU; this container has 1
	} {
		bounds := chunkBounds(tc.n, tc.workers, tc.minChunk)
		if got := len(bounds) - 1; got != tc.wantChunks && tc.workers != 0 {
			t.Errorf("chunkBounds(%d,%d,%d): %d chunks, want %d", tc.n, tc.workers, tc.minChunk, got, tc.wantChunks)
		}
		if bounds[0] != 0 || bounds[len(bounds)-1] != tc.n {
			t.Errorf("chunkBounds(%d,%d,%d): bounds %v do not cover [0,%d]", tc.n, tc.workers, tc.minChunk, bounds, tc.n)
		}
		for i := 1; i < len(bounds); i++ {
			if bounds[i] < bounds[i-1] {
				t.Errorf("chunkBounds(%d,%d,%d): bounds %v not ascending", tc.n, tc.workers, tc.minChunk, bounds)
			}
		}
	}
}

// TestBuildGroupMultisetsWorkerInvariance checks that the bulk build produces
// structurally identical multisets — values, row stacks, height buckets,
// pillar pointers — at every worker count, on group shapes that straddle the
// chunking threshold.
func TestBuildGroupMultisetsWorkerInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, nGroups := range []int{1, 7, 255, 700, 3000} {
		const domain = 23
		groups := make([][]int, nGroups)
		row := 0
		var sa []int
		for gi := range groups {
			k := rng.Intn(9) // empty groups allowed
			for j := 0; j < k; j++ {
				groups[gi] = append(groups[gi], row)
				sa = append(sa, rng.Intn(domain))
				row++
			}
		}
		want := buildGroupMultisets(groups, domain, sa, 1, 1)
		for _, workers := range []int{2, 8} {
			got := buildGroupMultisets(groups, domain, sa, 1, workers)
			if len(got) != len(want) {
				t.Fatalf("nGroups=%d workers=%d: %d multisets, want %d", nGroups, workers, len(got), len(want))
			}
			for gi := range want {
				w, g := want[gi], got[gi]
				if g.size != w.size || g.maxH != w.maxH ||
					!reflect.DeepEqual(g.cnt, w.cnt) || !reflect.DeepEqual(g.vals, w.vals) ||
					!reflect.DeepEqual(g.rows, w.rows) || !reflect.DeepEqual(g.heightCnt, w.heightCnt) {
					t.Fatalf("nGroups=%d workers=%d: multiset %d differs from serial build", nGroups, workers, gi)
				}
			}
		}
	}
}

// TestBuildGroupMultisetsMatchesIncremental checks the bulk build against a
// sequence of add calls — the semantics the arena build must reproduce
// exactly, LIFO row stacks included.
func TestBuildGroupMultisetsMatchesIncremental(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	const domain = 11
	groups := make([][]int, 40)
	row := 0
	var sa []int
	for gi := range groups {
		k := rng.Intn(30)
		for j := 0; j < k; j++ {
			groups[gi] = append(groups[gi], row)
			sa = append(sa, rng.Intn(domain))
			row++
		}
	}
	bulk := buildGroupMultisets(groups, domain, sa, 1, 4)
	for gi, g := range groups {
		inc := newSAMultiset(domain)
		for _, r := range g {
			inc.add(sa[r], r)
		}
		b := bulk[gi]
		if b.size != inc.size || b.maxH != inc.maxH || !reflect.DeepEqual(b.cnt, inc.cnt) {
			t.Fatalf("group %d: stats differ from incremental build", gi)
		}
		if !reflect.DeepEqual(b.allRows(), inc.allRows()) {
			t.Fatalf("group %d: rows differ from incremental build", gi)
		}
		// Same removal order: drain both and compare popped rows.
		for inc.size > 0 {
			v := inc.firstPillar()
			if got, want := b.removeOne(v), inc.removeOne(v); got != want {
				t.Fatalf("group %d: removeOne(%d) = %d, want %d", gi, v, got, want)
			}
		}
	}
}

// TestBuildGroupMultisetsSkipsSmallGroups checks the minimum group size:
// groups below it come back as empty multisets over the whole SA domain, and
// every other group is built exactly as with no minimum.
func TestBuildGroupMultisetsSkipsSmallGroups(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	const domain, minSize = 9, 4
	groups := make([][]int, 600)
	row := 0
	var sa []int
	for gi := range groups {
		k := rng.Intn(8)
		for j := 0; j < k; j++ {
			groups[gi] = append(groups[gi], row)
			sa = append(sa, rng.Intn(domain))
			row++
		}
	}
	all := buildGroupMultisets(groups, domain, sa, 1, 1)
	for _, workers := range []int{1, 3} {
		got := buildGroupMultisets(groups, domain, sa, minSize, workers)
		for gi, g := range groups {
			m := got[gi]
			if len(g) < minSize {
				if m.size != 0 || m.maxH != 0 || len(m.vals) != 0 || len(m.cnt) != domain || slices.ContainsFunc(m.cnt, func(c int32) bool { return c != 0 }) {
					t.Fatalf("workers=%d: group %d (%d rows) below the minimum was built", workers, gi, len(g))
				}
				continue
			}
			w := all[gi]
			if m.size != w.size || m.maxH != w.maxH ||
				!reflect.DeepEqual(m.cnt, w.cnt) || !reflect.DeepEqual(m.vals, w.vals) ||
				!reflect.DeepEqual(m.rows, w.rows) || !reflect.DeepEqual(m.heightCnt, w.heightCnt) {
				t.Fatalf("workers=%d: group %d differs from the build without a minimum", workers, gi)
			}
		}
	}
}
