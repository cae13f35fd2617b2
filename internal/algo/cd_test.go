package algo

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// oracleTallyVotes is the original election: a reflection sort.Slice
// and one math.Pow per vote. TallyVotes must return the same bits.
func oracleTallyVotes(votes []Vote, preference float64) (label int64, maxScore float64, ok bool) {
	if len(votes) == 0 {
		return 0, 0, false
	}
	sort.Slice(votes, func(i, j int) bool {
		a, b := votes[i], votes[j]
		if a.Label != b.Label {
			return a.Label < b.Label
		}
		if a.Score != b.Score {
			return a.Score < b.Score
		}
		return a.Degree < b.Degree
	})
	bestLabel := votes[0].Label
	bestWeight := math.Inf(-1)
	bestScore := 0.0

	curLabel := votes[0].Label
	curWeight := 0.0
	curScore := 0.0
	flush := func() {
		if curWeight > bestWeight {
			bestWeight = curWeight
			bestLabel = curLabel
			bestScore = curScore
		}
	}
	for _, v := range votes {
		if v.Label != curLabel {
			flush()
			curLabel = v.Label
			curWeight = 0
			curScore = 0
		}
		curWeight += v.Score * math.Pow(float64(v.Degree), preference)
		if v.Score > curScore {
			curScore = v.Score
		}
	}
	flush()
	return bestLabel, bestScore, true
}

// randomVotes draws a vote multiset built to collide: few labels, a
// small score alphabet (equal scores with different degrees), degree 0,
// degrees past maxTable, and verbatim duplicate tuples.
func randomVotes(r *rand.Rand, maxTable int) []Vote {
	scores := []float64{0, 0.05, 0.35, 0.9, 0.95, 1, r.Float64()}
	votes := make([]Vote, r.Intn(40))
	for i := range votes {
		if i > 0 && r.Intn(4) == 0 {
			votes[i] = votes[r.Intn(i)]
			continue
		}
		votes[i] = Vote{
			Label:  int64(r.Intn(6)),
			Score:  scores[r.Intn(len(scores))],
			Degree: int32(r.Intn(2*maxTable + 2)),
		}
	}
	return votes
}

func TestTallyVotesMatchesOracle(t *testing.T) {
	const maxTable = 12
	r := rand.New(rand.NewSource(42))
	for _, m := range []float64{0.1, 0, 0.5, 0.7, 1.5} {
		pref := NewPreference(m, maxTable)
		for i := 0; i < 3000; i++ {
			votes := randomVotes(r, maxTable)
			shuffled := append([]Vote(nil), votes...)
			r.Shuffle(len(shuffled), func(a, b int) { shuffled[a], shuffled[b] = shuffled[b], shuffled[a] })

			sorted := append([]Vote(nil), votes...)
			wl, ws, wok := oracleTallyVotes(sorted, m)
			gl, gs, gok := TallyVotes(shuffled, pref)
			if gl != wl || math.Float64bits(gs) != math.Float64bits(ws) || gok != wok {
				t.Fatalf("m=%v votes %v: TallyVotes = (%d, %v, %v), oracle (%d, %v, %v)",
					m, votes, gl, gs, gok, wl, ws, wok)
			}
			// The weights are summed in slice order after the sort, so an
			// identical sequence means identical float sums.
			for k := range sorted {
				if shuffled[k] != sorted[k] {
					t.Fatalf("m=%v votes %v: sorted to %v, oracle %v", m, votes, shuffled, sorted)
				}
			}
		}
	}
}

func TestPreferenceWeightMatchesPow(t *testing.T) {
	for _, m := range []float64{0.1, 0, 0.7, 2} {
		pref := NewPreference(m, 100)
		for _, d := range []int32{0, 1, 2, 99, 100, 101, 5000, math.MaxInt32, -1} {
			if got, want := pref.Weight(d), math.Pow(float64(d), m); math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("m=%v deg=%d: Weight = %v, math.Pow = %v", m, d, got, want)
			}
		}
	}
}

func TestModularityDeterministic(t *testing.T) {
	g := randomGraph(t, 3000, 12000, 11, true)
	labels := make(CDOutput, g.NumVertices())
	for v := range labels {
		labels[v] = int64((v * 7919) % 997)
	}
	first := Modularity(g, labels)
	for i := 0; i < 100; i++ {
		if q := Modularity(g, labels); math.Float64bits(q) != math.Float64bits(first) {
			t.Fatalf("call %d: modularity %v, first call %v", i, q, first)
		}
	}
	// Labels outside the vertex ID domain number the same way.
	shifted := make(CDOutput, len(labels))
	for v, l := range labels {
		shifted[v] = l*1000 - 500000
	}
	if q := Modularity(g, shifted); math.Float64bits(q) != math.Float64bits(first) {
		t.Fatalf("relabelled modularity %v, want %v", q, first)
	}
}

func BenchmarkTallyVotes(b *testing.B) {
	const maxTable = 64
	r := rand.New(rand.NewSource(1))
	sets := make([][]Vote, 256)
	for i := range sets {
		sets[i] = randomVotes(r, maxTable)
	}
	pref := NewPreference(0.1, 2*maxTable+1)
	buf := make([]Vote, 0, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = append(buf[:0], sets[i%len(sets)]...)
		TallyVotes(buf, pref)
	}
}

func BenchmarkRunCD(b *testing.B) {
	g := randomGraph(b, 5000, 40000, 3, true)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		RunCD(g, Params{})
	}
}
