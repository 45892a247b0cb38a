package remap

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"plum/internal/msg"
)

// paperLikeMatrix is a 4x4, F=1 similarity matrix exercising the same
// structure as the paper's Fig. 2 worked example (the scanned figure's
// exact entries are illegible, so these are a substitute; PAPER.md
// summarises the mapping problem, and plumbench -exp fig2 prints the
// three mappers' results on this matrix with the 2*Heu >= Opt theorem
// check).  Chosen so that the greedy heuristic is suboptimal.
func paperLikeMatrix() *Similarity {
	s := NewSimilarity(4, 1)
	s.S[0] = []int64{100, 90, 0, 0}
	s.S[1] = []int64{95, 0, 0, 0}
	s.S[2] = []int64{0, 85, 120, 30}
	s.S[3] = []int64{0, 0, 110, 25}
	return s
}

// bruteForceOptimal enumerates all assignments (F=1) and returns the
// maximum objective.
func bruteForceOptimal(s *Similarity) int64 {
	n := s.P
	perm := make([]int32, n)
	used := make([]bool, n)
	var best int64 = -1
	var rec func(j int, acc int64)
	rec = func(j int, acc int64) {
		if j == n {
			if acc > best {
				best = acc
			}
			return
		}
		for i := 0; i < n; i++ {
			if !used[i] {
				used[i] = true
				perm[j] = int32(i)
				rec(j+1, acc+s.S[i][j])
				used[i] = false
			}
		}
	}
	rec(0, 0)
	return best
}

// bruteForceBottleneck enumerates all assignments and returns the
// minimum achievable bottleneck cost.
func bruteForceBottleneck(s *Similarity, alpha, beta float64) float64 {
	n := s.P
	rows := s.RowSums()
	cols := s.ColSums()
	used := make([]bool, n)
	best := -1.0
	var rec func(j int, cur float64)
	rec = func(j int, cur float64) {
		if best >= 0 && cur >= best {
			return
		}
		if j == n {
			if best < 0 || cur < best {
				best = cur
			}
			return
		}
		for i := 0; i < n; i++ {
			if used[i] {
				continue
			}
			sent := alpha * float64(rows[i]-s.S[i][j])
			recv := beta * float64(cols[j]-s.S[i][j])
			c := cur
			if sent > c {
				c = sent
			}
			if recv > c {
				c = recv
			}
			used[i] = true
			rec(j+1, c)
			used[i] = false
		}
	}
	rec(0, 0)
	return best
}

// bottleneckOf computes the realized bottleneck cost of an assignment.
func bottleneckOf(s *Similarity, assign []int32, alpha, beta float64) float64 {
	rows := s.RowSums()
	cols := s.ColSums()
	worst := 0.0
	for j, i := range assign {
		sent := alpha * float64(rows[i]-s.S[i][j])
		recv := beta * float64(cols[j]-s.S[i][j])
		if sent > worst {
			worst = sent
		}
		if recv > worst {
			worst = recv
		}
	}
	return worst
}

func randomSimilarity(rng *rand.Rand, p int, sparsity float64) *Similarity {
	s := NewSimilarity(p, 1)
	for i := 0; i < p; i++ {
		for j := 0; j < p; j++ {
			if rng.Float64() > sparsity {
				s.S[i][j] = int64(rng.Intn(1000))
			}
		}
	}
	return s
}

func TestOptimalMWBGIsOptimal(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		s := randomSimilarity(rng, 2+rng.Intn(5), 0.4)
		assign := OptimalMWBG(s)
		if err := s.CheckAssignment(assign); err != nil {
			t.Fatal(err)
		}
		got := s.Objective(assign)
		want := bruteForceOptimal(s)
		if got != want {
			t.Fatalf("trial %d: optimal objective %d, brute force %d\n%v", trial, got, want, s.S)
		}
	}
}

func TestHeuristicHalfOptimalBound(t *testing.T) {
	// Theorem 1: 2*Heu >= Opt, always.
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		s := randomSimilarity(rng, 2+rng.Intn(6), 0.5)
		heu := s.Objective(HeuristicMWBG(s))
		opt := s.Objective(OptimalMWBG(s))
		if 2*heu < opt {
			t.Fatalf("trial %d: heuristic %d < half of optimal %d\n%v", trial, heu, opt, s.S)
		}
		if heu > opt {
			t.Fatalf("trial %d: heuristic %d exceeds optimal %d", trial, heu, opt)
		}
	}
}

func TestHeuristicDataMovementBound(t *testing.T) {
	// Corollary: moved weight under the heuristic <= 2x optimal moved.
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 100; trial++ {
		s := randomSimilarity(rng, 3+rng.Intn(4), 0.3)
		heuMoved := Cost(s, HeuristicMWBG(s)).CTotal
		optMoved := Cost(s, OptimalMWBG(s)).CTotal
		if heuMoved > 2*optMoved {
			t.Fatalf("trial %d: heuristic moves %d > 2x optimal %d", trial, heuMoved, optMoved)
		}
	}
}

func TestHeuristicValidAssignment(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 30; trial++ {
		p := 2 + rng.Intn(6)
		for f := 1; f <= 3; f++ {
			s := NewSimilarity(p, f)
			for i := 0; i < p; i++ {
				for j := 0; j < p*f; j++ {
					s.S[i][j] = int64(rng.Intn(100))
				}
			}
			assign := HeuristicMWBG(s)
			if err := s.CheckAssignment(assign); err != nil {
				t.Fatalf("P=%d F=%d: %v", p, f, err)
			}
		}
	}
}

func TestOptimalMWBGWithF2(t *testing.T) {
	// With F=2, each processor must receive exactly two partitions, and
	// the duplicated-row reduction must still beat the heuristic.
	s := NewSimilarity(3, 2)
	s.S[0] = []int64{50, 40, 0, 0, 10, 0}
	s.S[1] = []int64{45, 0, 30, 25, 0, 5}
	s.S[2] = []int64{0, 35, 28, 0, 20, 15}
	opt := OptimalMWBG(s)
	if err := s.CheckAssignment(opt); err != nil {
		t.Fatal(err)
	}
	heu := HeuristicMWBG(s)
	if err := s.CheckAssignment(heu); err != nil {
		t.Fatal(err)
	}
	if s.Objective(opt) < s.Objective(heu) {
		t.Errorf("optimal %d < heuristic %d", s.Objective(opt), s.Objective(heu))
	}
}

func TestBMCMIsOptimalBottleneck(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 40; trial++ {
		s := randomSimilarity(rng, 2+rng.Intn(5), 0.4)
		assign := OptimalBMCM(s, 1, 1)
		if err := s.CheckAssignment(assign); err != nil {
			t.Fatal(err)
		}
		got := bottleneckOf(s, assign, 1, 1)
		want := bruteForceBottleneck(s, 1, 1)
		if got != want {
			t.Fatalf("trial %d: BMCM bottleneck %v, brute force %v\n%v", trial, got, want, s.S)
		}
	}
}

func TestBMCMAsymmetricAlphaBeta(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 20; trial++ {
		s := randomSimilarity(rng, 3+rng.Intn(3), 0.4)
		assign := OptimalBMCM(s, 2.0, 0.5)
		got := bottleneckOf(s, assign, 2.0, 0.5)
		want := bruteForceBottleneck(s, 2.0, 0.5)
		if got != want {
			t.Fatalf("trial %d: bottleneck %v != %v", trial, got, want)
		}
	}
}

func TestBMCMBeatsMWBGOnMaxMetric(t *testing.T) {
	// Paper Fig. 2 relationship: BMCM's bottleneck (Cmax) is <= the MWBG
	// mappers' bottleneck, while its total volume is >= theirs.
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 50; trial++ {
		s := randomSimilarity(rng, 4+rng.Intn(4), 0.3)
		bmcm := bottleneckOf(s, OptimalBMCM(s, 1, 1), 1, 1)
		mwbg := bottleneckOf(s, OptimalMWBG(s), 1, 1)
		if bmcm > mwbg {
			t.Fatalf("trial %d: BMCM bottleneck %v worse than MWBG %v", trial, bmcm, mwbg)
		}
	}
}

func TestCostIdentityAssignment(t *testing.T) {
	s := paperLikeMatrix()
	identity := []int32{0, 1, 2, 3}
	mc := Cost(s, identity)
	if mc.Objective != 100+0+120+25 {
		t.Errorf("identity objective = %d", mc.Objective)
	}
	if mc.CTotal != s.Sum()-mc.Objective {
		t.Errorf("CTotal %d != sum-objective %d", mc.CTotal, s.Sum()-mc.Objective)
	}
}

func TestCostConservation(t *testing.T) {
	// Objective + CTotal == Sum for any assignment.
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := randomSimilarity(rng, 3+rng.Intn(5), 0.4)
		for _, assign := range [][]int32{HeuristicMWBG(s), OptimalMWBG(s), OptimalBMCM(s, 1, 1)} {
			mc := Cost(s, assign)
			if mc.Objective+mc.CTotal != s.Sum() {
				return false
			}
			if mc.CMax > mc.CTotal {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(3))}); err != nil {
		t.Error(err)
	}
}

func TestPaperLikeExampleRelationships(t *testing.T) {
	// The qualitative relationships of the paper's Fig. 2(b)-(d).
	s := paperLikeMatrix()
	opt := OptimalMWBG(s)
	heu := HeuristicMWBG(s)
	bmcm := OptimalBMCM(s, 1, 1)
	optC := Cost(s, opt)
	heuC := Cost(s, heu)
	bmcmC := Cost(s, bmcm)
	if optC.CTotal > heuC.CTotal {
		t.Errorf("optimal MWBG moves more (%d) than heuristic (%d)", optC.CTotal, heuC.CTotal)
	}
	if bmcmC.CTotal < optC.CTotal {
		t.Errorf("BMCM total %d below MWBG optimal %d — unexpected for this matrix", bmcmC.CTotal, optC.CTotal)
	}
	if b, m := bottleneckOf(s, bmcm, 1, 1), bottleneckOf(s, opt, 1, 1); b > m {
		t.Errorf("BMCM bottleneck %v worse than MWBG %v", b, m)
	}
	if 2*s.Objective(heu) < s.Objective(opt) {
		t.Error("theorem violated on the worked example")
	}
}

func TestRadixSortDesc(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	entries := make([]entry, 500)
	for i := range entries {
		entries[i] = entry{val: int64(rng.Intn(100)), i: int32(i / 25), j: int32(i % 25)}
	}
	radixSortDesc(entries)
	for i := 1; i < len(entries); i++ {
		a, b := entries[i-1], entries[i]
		if a.val < b.val {
			t.Fatalf("not descending at %d: %v then %v", i, a, b)
		}
		if a.val == b.val && (a.i > b.i || (a.i == b.i && a.j > b.j)) {
			t.Fatalf("tie-break violated at %d: %v then %v", i, a, b)
		}
	}
	// Cross-check against sort.
	want := make([]entry, len(entries))
	copy(want, entries)
	sort.SliceStable(want, func(x, y int) bool { return want[x].val > want[y].val })
	for i := range want {
		if want[i].val != entries[i].val {
			t.Fatal("radix order differs from reference sort")
		}
	}
}

func TestBuildSimilarity(t *testing.T) {
	wremap := []int64{5, 3, 2, 7}
	owner := []int32{0, 0, 1, 1}
	newPart := []int32{1, 0, 0, 1}
	s := BuildSimilarity(wremap, owner, newPart, 2, 1)
	if s.S[0][1] != 5 || s.S[0][0] != 3 || s.S[1][0] != 2 || s.S[1][1] != 7 {
		t.Errorf("matrix wrong: %v", s.S)
	}
	if s.Sum() != 17 {
		t.Errorf("sum = %d", s.Sum())
	}
}

func TestBuildSimilarityDistributed(t *testing.T) {
	wremap := []int64{5, 3, 2, 7, 1, 4}
	newPart := []int32{1, 0, 0, 1, 2, 2}
	owner := []int32{0, 0, 1, 1, 2, 2}
	want := BuildSimilarity(wremap, owner, newPart, 3, 1)
	msg.Run(3, func(c *msg.Comm) {
		var localRoots []int32
		for r, o := range owner {
			if int(o) == c.Rank() {
				localRoots = append(localRoots, int32(r))
			}
		}
		s := BuildSimilarityDistributed(c, localRoots, wremap, newPart, 1)
		if c.Rank() == 0 {
			for i := range want.S {
				for j := range want.S[i] {
					if s.S[i][j] != want.S[i][j] {
						t.Errorf("S[%d][%d] = %d, want %d", i, j, s.S[i][j], want.S[i][j])
					}
				}
			}
		} else if s != nil {
			t.Errorf("rank %d got a non-nil matrix", c.Rank())
		}
		// Host maps, everyone receives.
		var assign []int32
		if c.Rank() == 0 {
			assign = HeuristicMWBG(s)
		}
		assign = BroadcastAssignment(c, assign)
		if len(assign) != 3 {
			t.Errorf("rank %d: assignment %v", c.Rank(), assign)
		}
	})
}

func TestRedistributionCostMetrics(t *testing.T) {
	s := paperLikeMatrix()
	assign := OptimalMWBG(s)
	mc := Cost(s, assign)
	m := Machine{TLat: 1, TSetup: 10, TIter: 1, M: 2}
	total := RedistributionCost(TotalV, mc, m)
	wantTotal := 2*float64(mc.CTotal) + 10*float64(mc.NTotal)
	if total != wantTotal {
		t.Errorf("TotalV cost %v, want %v", total, wantTotal)
	}
	maxv := RedistributionCost(MaxV, mc, m)
	wantMax := 2*float64(mc.CMax) + 10*float64(mc.NMax)
	if maxv != wantMax {
		t.Errorf("MaxV cost %v, want %v", maxv, wantMax)
	}
}

func TestGainAndAccept(t *testing.T) {
	m := Machine{TIter: 2, M: 1}
	gain := ComputationalGain(m, 50, 1000, 600, 0.5)
	want := 2.0*50*400 + 0.5
	if gain != want {
		t.Errorf("gain = %v, want %v", gain, want)
	}
	if !Accept(10, 5) || Accept(5, 10) || Accept(5, 5) {
		t.Error("Accept thresholds wrong")
	}
}

func TestMetricString(t *testing.T) {
	if TotalV.String() != "TotalV" || MaxV.String() != "MaxV" {
		t.Error("metric names wrong")
	}
}
