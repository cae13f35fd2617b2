package algo

import (
	"cmp"
	"math"
	"slices"

	"graphalytics/internal/graph"
)

// The CD workload implements community detection by label propagation
// following Leung et al. (Phys. Rev. E 79, 2009), the algorithm the
// paper cites: score-carried labels with hop attenuation δ and node
// preference deg^m.
//
// Deterministic specification (all platforms must follow it exactly):
//
//   - Initially every vertex holds label = its own ID with score 1.
//   - Rounds are synchronous. In every round each vertex v collects one
//     vote (label, score, degree) from every neighbor in
//     N(v) = out ∪ in. A label's weight is Σ score·deg^m over the votes
//     carrying it, accumulated in ascending (label, score, degree)
//     order (fixed order ⇒ identical floating-point rounding on every
//     platform).
//   - v adopts the label with the maximum weight, ties broken by the
//     smallest label. Its new score is the maximum score among the votes
//     that carried the winning label, minus δ if the label differs from
//     v's current one (hop attenuation), floored at 0.
//   - Vertices without neighbors keep their state. After a fixed number
//     of rounds the labels are the community assignment.

// Vote is one neighbor's contribution to the CD label election.
type Vote struct {
	Label  int64
	Score  float64
	Degree int32
}

// Preference is the node preference deg^m of one CD run, tabulated for
// degrees 0..maxDegree so a vote's weight is a table read rather than a
// math.Pow call. Degrees beyond the table fall back to math.Pow; both
// paths return the same bits because math.Pow is a pure function. A
// Preference is read-only once built, so the workers of one run share
// it.
type Preference struct {
	m   float64
	pow []float64
}

// NewPreference tabulates deg^m for every degree up to maxDegree (the
// largest |N(v)| of the graph).
func NewPreference(m float64, maxDegree int) Preference {
	pow := make([]float64, maxDegree+1)
	for d := range pow {
		pow[d] = math.Pow(float64(d), m)
	}
	return Preference{m: m, pow: pow}
}

// Weight returns deg^m.
func (p Preference) Weight(deg int32) float64 {
	if uint(deg) < uint(len(p.pow)) {
		return p.pow[deg]
	}
	return math.Pow(float64(deg), p.m)
}

// compareVotes orders votes by (Label, Score, Degree): a total order on
// distinct tuples, so every sort of a vote multiset yields the same
// sequence.
func compareVotes(a, b Vote) int {
	if a.Label != b.Label {
		return cmp.Compare(a.Label, b.Label)
	}
	if a.Score != b.Score {
		if a.Score < b.Score {
			return -1
		}
		return 1
	}
	return cmp.Compare(a.Degree, b.Degree)
}

// TallyVotes elects the winning label from votes under the CD
// specification and returns the label and the maximum score among the
// winning label's votes. pref is the run's node preference table. The
// slice is sorted in place. TallyVotes is shared by every platform
// implementation so the floating-point accumulation is bit-identical
// everywhere. ok is false when votes is empty.
func TallyVotes(votes []Vote, pref Preference) (label int64, maxScore float64, ok bool) {
	if len(votes) == 0 {
		return 0, 0, false
	}
	slices.SortFunc(votes, compareVotes)
	bestLabel := votes[0].Label
	bestWeight := math.Inf(-1)
	bestScore := 0.0

	curLabel := votes[0].Label
	curWeight := 0.0
	curScore := 0.0
	for _, v := range votes {
		if v.Label != curLabel {
			if curWeight > bestWeight {
				bestWeight, bestLabel, bestScore = curWeight, curLabel, curScore
			}
			curLabel = v.Label
			curWeight = 0
			curScore = 0
		}
		curWeight += v.Score * pref.Weight(v.Degree)
		if v.Score > curScore {
			curScore = v.Score
		}
	}
	if curWeight > bestWeight {
		bestWeight, bestLabel, bestScore = curWeight, curLabel, curScore
	}
	return bestLabel, bestScore, true
}

// RunCD computes the CD workload reference result.
func RunCD(g *graph.Graph, p Params) CDOutput {
	p = p.WithDefaults(g.NumVertices())
	n := g.NumVertices()

	labels := make([]int64, n)
	scores := make([]float64, n)
	degs := make([]int32, n)
	maxDeg := 0
	var buf []graph.VertexID
	for v := 0; v < n; v++ {
		labels[v] = int64(v)
		scores[v] = 1
		buf = g.Neighborhood(graph.VertexID(v), buf[:0]) // |N(v)| is v's CD degree
		degs[v] = int32(len(buf))
		maxDeg = max(maxDeg, len(buf))
	}
	pref := NewPreference(p.CDPreference, maxDeg)

	newLabels := make([]int64, n)
	newScores := make([]float64, n)
	votes := make([]Vote, 0, 64)
	for iter := 0; iter < p.CDIterations; iter++ {
		for v := 0; v < n; v++ {
			buf = g.Neighborhood(graph.VertexID(v), buf[:0])
			votes = votes[:0]
			for _, u := range buf {
				votes = append(votes, Vote{Label: labels[u], Score: scores[u], Degree: degs[u]})
			}
			win, maxScore, ok := TallyVotes(votes, pref)
			if !ok {
				newLabels[v] = labels[v]
				newScores[v] = scores[v]
				continue
			}
			newLabels[v] = win
			s := maxScore
			if win != labels[v] {
				s -= p.CDDelta
			}
			if s < 0 {
				s = 0
			}
			newScores[v] = s
		}
		labels, newLabels = newLabels, labels
		scores, newScores = newScores, scores
	}
	return CDOutput(labels)
}

// CommunitySizes returns label -> member count.
func CommunitySizes(out CDOutput) map[int64]int {
	sizes := make(map[int64]int)
	for _, l := range out {
		sizes[l]++
	}
	return sizes
}

// Modularity computes the Newman modularity of the labeling on the
// undirected view of g; the Output Validator uses it as the quality
// measure for CD results. Communities are summed in ascending label
// order, so equal inputs give bit-identical results.
func Modularity(g *graph.Graph, labels CDOutput) float64 {
	u := graph.Undirect(g)
	m2 := float64(u.NumArcs()) // 2m
	if m2 == 0 {
		return 0
	}
	comm, k := communityIndex(labels)
	internal := make([]float64, k) // arcs inside each community
	degSum := make([]float64, k)   // Σ degrees per community
	u.Arcs(func(a, b graph.VertexID) {
		if comm[a] == comm[b] {
			internal[comm[a]]++
		}
	})
	for v := 0; v < u.NumVertices(); v++ {
		degSum[comm[v]] += float64(u.OutDegree(graph.VertexID(v)))
	}
	var q float64
	for _, in := range internal {
		q += in / m2
	}
	for _, d := range degSum {
		q -= (d / m2) * (d / m2)
	}
	return q
}

// communityIndex numbers the distinct labels 0..k-1 in ascending label
// order and returns each vertex's number and k.
func communityIndex(labels CDOutput) (comm []int32, k int) {
	order := make([]int32, len(labels))
	for v := range order {
		order[v] = int32(v)
	}
	slices.SortFunc(order, func(a, b int32) int { return cmp.Compare(labels[a], labels[b]) })
	comm = make([]int32, len(labels))
	for i, v := range order {
		if i == 0 || labels[v] != labels[order[i-1]] {
			k++
		}
		comm[v] = int32(k - 1)
	}
	return comm, k
}
