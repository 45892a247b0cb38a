package pmesh

import (
	"runtime"
	"slices"
	"testing"

	"plum/internal/adapt"
	"plum/internal/dual"
	"plum/internal/mesh"
	"plum/internal/msg"
	"plum/internal/partition"
	"plum/internal/remap"
)

// testPartition builds a deterministic partition of the global mesh.
func testPartition(global *mesh.Mesh, p int) []int32 {
	g := dual.FromMesh(global)
	return partition.Partition(g, p, partition.Options{})
}

func TestNewDistMeshCountsMatchSerial(t *testing.T) {
	global := mesh.Box(3, 3, 3, 1, 1, 1)
	serial := adapt.FromMesh(global, 0).ActiveCounts()
	for _, p := range []int{1, 2, 4} {
		part := testPartition(global, p)
		msg.Run(p, func(c *msg.Comm) {
			d := New(c, global, part, 0)
			if err := d.M.CheckInvariants(); err != nil {
				t.Errorf("p=%d rank %d: %v", p, c.Rank(), err)
			}
			got := d.GlobalCounts()
			if got != serial {
				t.Errorf("p=%d: distributed counts %+v != serial %+v", p, got, serial)
			}
		})
	}
}

func TestSPLSymmetry(t *testing.T) {
	// If rank A lists rank B in a shared vertex's SPL and B holds that
	// vertex, then B lists A for the same gid.
	global := mesh.Box(2, 2, 2, 1, 1, 1)
	part := testPartition(global, 3)
	msg.Run(3, func(c *msg.Comm) {
		d := New(c, global, part, 0)
		// Collect (gid, rank-in-spl) pairs and send to the named rank;
		// the receiver verifies it lists the sender.
		send := make([][]int64, 3)
		for v, spl := range d.VertSPL {
			for _, r := range spl {
				send[r] = append(send[r], int64(d.M.VertGID[v]))
			}
		}
		parts := make([][]byte, 3)
		for r := range parts {
			parts[r] = msg.PutInts(send[r])
		}
		recv := c.Alltoall(parts, make([][]byte, 3))
		for src := 0; src < 3; src++ {
			if src == c.Rank() {
				continue
			}
			for _, gid := range msg.GetInts(recv[src]) {
				v := d.M.VertByGID(uint64(gid))
				if v < 0 {
					continue // conservative SPL: sender over-approximated
				}
				found := false
				for _, r := range d.VertSPL[v] {
					if int(r) == src {
						found = true
					}
				}
				if !found {
					t.Errorf("rank %d: vertex gid %d shared with %d but SPL %v misses it",
						c.Rank(), gid, src, d.VertSPL[v])
				}
			}
		}
	})
}

func TestParallelRefinementMatchesSerial(t *testing.T) {
	// The headline conformity test: distributed marking + propagation +
	// refinement must produce exactly the mesh the serial code produces.
	global := mesh.Box(3, 3, 2, 3, 3, 2)
	ind := adapt.SphericalIndicator(mesh.Vec3{1.5, 1.5, 1.0}, 0.9, 0.5)

	serial := adapt.FromMesh(global, 0)
	serial.BuildEdgeElems()
	errv := serial.EdgeErrorGeometric(ind)
	serial.TargetEdges(errv, 0.5)
	serial.Propagate()
	serial.Refine()
	want := serial.ActiveCounts()

	for _, p := range []int{2, 4, 7} {
		part := testPartition(global, p)
		msg.Run(p, func(c *msg.Comm) {
			d := New(c, global, part, 0)
			le := d.M.EdgeErrorGeometric(ind)
			d.M.TargetEdges(le, 0.5)
			d.PropagateParallel()
			d.Refine()
			if err := d.M.CheckInvariants(); err != nil {
				t.Errorf("p=%d rank %d: %v", p, c.Rank(), err)
			}
			got := d.GlobalCounts()
			if got != want {
				t.Errorf("p=%d: distributed refined counts %+v != serial %+v", p, got, want)
			}
		})
	}
}

func TestMarkGeometricFractionDistributed(t *testing.T) {
	global := mesh.Box(3, 3, 3, 1, 1, 1)
	ind := adapt.SphericalIndicator(mesh.Vec3{0.5, 0.5, 0.5}, 0.3, 0.3)
	part := testPartition(global, 4)
	msg.Run(4, func(c *msg.Comm) {
		d := New(c, global, part, 0)
		n, _ := d.MarkGeometricFraction(ind, 0.10)
		total := c.AllreduceInt64(int64(n), msg.SumInt64)
		// Shared edges are counted on each sharer, so the global marked
		// count is approximate; it must be within a factor ~2 of the
		// target 10% of ~1400 edges.
		want := int64(float64(mesh.Box(3, 3, 3, 1, 1, 1).NumEdges()) * 0.10)
		if total < want/2 || total > want*3 {
			t.Errorf("marked %d edges globally, want about %d", total, want)
		}
	})
}

func TestMigrationRoundTrip(t *testing.T) {
	// Refine, migrate every family to rank 0, then scatter back; the
	// mesh must survive both moves with identical global counts.
	global := mesh.Box(2, 2, 2, 1, 1, 1)
	ind := adapt.SphericalIndicator(mesh.Vec3{0.5, 0.5, 0.5}, 0.4, 0.4)
	part := testPartition(global, 3)
	msg.Run(3, func(c *msg.Comm) {
		d := New(c, global, part, 1)
		le := d.M.EdgeErrorGeometric(ind)
		d.M.TargetEdges(le, 0.4)
		d.PropagateParallel()
		d.Refine()
		before := d.GlobalCounts()

		allToZero := make([]int32, global.NumElems())
		st := d.Migrate(allToZero)
		if err := d.M.CheckInvariants(); err != nil {
			t.Errorf("rank %d after gather-migration: %v", c.Rank(), err)
		}
		mid := d.GlobalCounts()
		if mid != before {
			t.Errorf("counts changed after migration to rank 0: %+v -> %+v", before, mid)
		}
		if c.Rank() == 0 && st.FamiliesRecv == 0 {
			t.Error("rank 0 received nothing")
		}
		serialLocal := d.M.ActiveCounts()
		if c.Rank() == 0 && serialLocal != before {
			t.Errorf("rank 0 local counts %+v != global %+v", serialLocal, before)
		}

		// Scatter back to the original partition.
		d.Migrate(part)
		if err := d.M.CheckInvariants(); err != nil {
			t.Errorf("rank %d after scatter-back: %v", c.Rank(), err)
		}
		after := d.GlobalCounts()
		if after != before {
			t.Errorf("counts changed after round trip: %+v -> %+v", before, after)
		}
	})
}

func TestMigrationPreservesSolution(t *testing.T) {
	global := mesh.Box(2, 2, 1, 2, 2, 1)
	part := testPartition(global, 2)
	msg.Run(2, func(c *msg.Comm) {
		d := New(c, global, part, 1)
		// Solution = x coordinate (distinguishes interpolation from
		// transfer after we perturb it post-refinement).
		for v := range d.M.Coords {
			d.M.Sol[v] = d.M.Coords[v][0]
		}
		ind := adapt.SphericalIndicator(mesh.Vec3{1, 1, 0.5}, 0.5, 0.5)
		le := d.M.EdgeErrorGeometric(ind)
		d.M.TargetEdges(le, 0.3)
		d.PropagateParallel()
		d.Refine()
		// Perturb the solution away from pure interpolation: sol = 2x.
		for v := range d.M.Coords {
			if d.M.VertAlive[v] {
				d.M.Sol[v] = 2 * d.M.Coords[v][0]
			}
		}
		// Swap ownership of everything.
		newOwner := make([]int32, global.NumElems())
		for g := range newOwner {
			newOwner[g] = 1 - d.RootOwner[g]
		}
		d.Migrate(newOwner)
		for v := range d.M.Coords {
			if !d.M.VertAlive[v] {
				continue
			}
			want := 2 * d.M.Coords[v][0]
			if diff := d.M.Sol[v] - want; diff > 1e-12 || diff < -1e-12 {
				t.Errorf("rank %d vertex %d sol %v, want %v", c.Rank(), v, d.M.Sol[v], want)
			}
		}
	})
}

func TestMigrateThenRefineConforming(t *testing.T) {
	// Remap-before-subdivision ordering: mark, migrate with marks
	// discarded, re-mark, refine — the distributed mesh must stay
	// conforming and match the serial result.
	global := mesh.Box(3, 2, 2, 3, 2, 2)
	ind := adapt.ShockPlaneIndicator(mesh.Vec3{1.5, 0, 0}, mesh.Vec3{1, 0, 0}, 0.4)

	serial := adapt.FromMesh(global, 0)
	serial.BuildEdgeElems()
	errv := serial.EdgeErrorGeometric(ind)
	serial.TargetEdges(errv, 0.5)
	serial.Propagate()
	serial.Refine()
	want := serial.ActiveCounts()

	p := 4
	part := testPartition(global, p)
	msg.Run(p, func(c *msg.Comm) {
		d := New(c, global, part, 0)
		// Mark + propagate, compute predicted weights, repartition,
		// migrate, re-mark, refine: the full remap-before-refinement
		// pipeline at the mesh level.
		le := d.M.EdgeErrorGeometric(ind)
		d.M.TargetEdges(le, 0.5)
		d.PropagateParallel()
		wc, wr := d.GatherPredictedWeights()
		g := dual.FromMesh(global)
		g.SetWeights(wc, wr)
		newPart := partition.Repartition(g, p, d.RootOwner, partition.Options{})
		// Map partitions to processors minimizing movement.
		s := remap.BuildSimilarity(wr, d.RootOwner, newPart, p, 1)
		assign := remap.HeuristicMWBG(s)
		newOwner := make([]int32, len(newPart))
		for r, np := range newPart {
			newOwner[r] = assign[np]
		}
		d.M.ClearMarks()
		d.Migrate(newOwner)
		if err := d.M.CheckInvariants(); err != nil {
			t.Errorf("rank %d post-migrate: %v", c.Rank(), err)
		}
		// Re-mark on the migrated mesh and refine.
		le = d.M.EdgeErrorGeometric(ind)
		d.M.TargetEdges(le, 0.5)
		d.PropagateParallel()
		d.Refine()
		if err := d.M.CheckInvariants(); err != nil {
			t.Errorf("rank %d post-refine: %v", c.Rank(), err)
		}
		got := d.GlobalCounts()
		if got != want {
			t.Errorf("remap-before-refine counts %+v != serial %+v", got, want)
		}
	})
}

// TestGatherWeights: the replicated weights GatherWeights assembles equal
// the serial mesh's RootWeights on the unrefined mesh, after refinement
// and after a migration (whose arriving roots are numbered past the
// rank's initial ones), and GatherPredictedWeights' wcomp equals the
// serial PredictRefine before refinement.
func TestGatherWeights(t *testing.T) {
	global := mesh.Box(3, 3, 2, 3, 3, 2)
	ind := adapt.SphericalIndicator(mesh.Vec3{1.5, 1.5, 1.0}, 0.9, 0.5)
	serial := adapt.FromMesh(global, 0)
	serial.BuildEdgeElems()
	unrefined, _ := serial.RootWeights()
	serial.TargetEdges(serial.EdgeErrorGeometric(ind), 0.5)
	serial.Propagate()
	predicted := serial.PredictRefine().LeavesPerRoot
	serial.Refine()
	wantC, wantR := serial.RootWeights()

	for _, p := range []int{4, 7} {
		part := testPartition(global, p)
		msg.Run(p, func(c *msg.Comm) {
			d := New(c, global, part, 0)
			// The gathered tables are replicated: rank 0 reports.
			check := func(stage string, got, want []int64) {
				if c.Rank() == 0 && !slices.Equal(got, want) {
					t.Errorf("p=%d %s:\n got %v\nwant %v", p, stage, got, want)
				}
			}
			wc, wr := d.GatherWeights()
			check("unrefined wcomp", wc, unrefined)
			check("unrefined wremap", wr, unrefined)
			d.M.TargetEdges(d.M.EdgeErrorGeometric(ind), 0.5)
			d.PropagateParallel()
			pc, _ := d.GatherPredictedWeights()
			check("predicted wcomp", pc, predicted)
			d.Refine()
			wc, wr = d.GatherWeights()
			check("refined wcomp", wc, wantC)
			check("refined wremap", wr, wantR)
			scramble(d)
			wc, wr = d.GatherWeights()
			check("migrated wcomp", wc, wantC)
			check("migrated wremap", wr, wantR)
		})
	}
}

// TestLocalRootBookkeeping: before and after a migration, LocalRootIDs
// lists exactly the roots RootOwner assigns to the rank, strictly
// ascending; LocalRootElem and GlobalRootID are inverse on them, and
// both answer -1 off them (a root owned elsewhere, a child element).
func TestLocalRootBookkeeping(t *testing.T) {
	global := mesh.Box(3, 3, 2, 3, 3, 2)
	ind := adapt.SphericalIndicator(mesh.Vec3{1.5, 1.5, 1.0}, 0.9, 0.5)
	part := testPartition(global, 3)
	msg.Run(3, func(c *msg.Comm) {
		d := New(c, global, part, 0)
		me := int32(c.Rank())
		check := func(stage string) {
			ids := d.LocalRootIDs()
			for i := 1; i < len(ids); i++ {
				if ids[i-1] >= ids[i] {
					t.Fatalf("%s rank %d: LocalRootIDs not strictly ascending: %v", stage, me, ids)
				}
			}
			owned := 0
			for g, o := range d.RootOwner {
				l := d.LocalRootElem(int32(g))
				if o != me {
					if l != -1 {
						t.Fatalf("%s rank %d: root %d owned by %d has local element %d", stage, me, g, o, l)
					}
					continue
				}
				owned++
				if l < 0 || d.GlobalRootID(l) != int32(g) {
					t.Fatalf("%s rank %d: root %d -> element %d -> root %d", stage, me, g, l, d.GlobalRootID(l))
				}
			}
			if owned != len(ids) {
				t.Fatalf("%s rank %d: %d roots listed, %d owned", stage, me, len(ids), owned)
			}
			for e, par := range d.M.ElemParent {
				if par >= 0 && d.GlobalRootID(int32(e)) != -1 {
					t.Fatalf("%s rank %d: child element %d has root id %d", stage, me, e, d.GlobalRootID(int32(e)))
				}
			}
			total := c.AllreduceInt64(int64(len(ids)), msg.SumInt64)
			if int(total) != global.NumElems() {
				t.Errorf("%s: roots partitioned into %d, want %d", stage, total, global.NumElems())
			}
		}
		check("initial")
		refineAndScramble(d, ind)
		check("migrated")
	})
}

func TestIntersectRanks(t *testing.T) {
	got := appendIntersect([]int32{4}, []int32{1, 3, 5, 7}, []int32{2, 3, 5, 8})
	if len(got) != 3 || got[0] != 4 || got[1] != 3 || got[2] != 5 {
		t.Errorf("appendIntersect = %v, want [4 3 5]", got)
	}
	if got := appendIntersect(nil, nil, []int32{1}); got != nil {
		t.Errorf("empty intersection appended %v", got)
	}
}

// TestTripleWire: a sorted triple list travels as the same bytes as its
// flattened words did through msg.PutInts, decodes back per triple, and
// dropHeld keeps exactly the triples the other payload lacks (duplicates
// included).
func TestTripleWire(t *testing.T) {
	ts := [][3]int64{{2, 5, 9}, {1, -3, 0}, {2, 5, 1}, {1, 7, 0}, {1, 7, 0}}
	slices.SortFunc(ts, cmpTriple)
	var words []int64
	for _, x := range ts {
		words = append(words, x[:]...)
	}
	p := appendTriples(nil, ts)
	if !slices.Equal(p, msg.PutInts(words)) {
		t.Fatalf("appendTriples bytes differ from msg.PutInts of the flattened words")
	}
	for i, x := range ts {
		if got := tripleAt(p, i); got != x {
			t.Errorf("tripleAt(%d) = %v, want %v", i, got, x)
		}
	}
	theirs := appendTriples(nil, [][3]int64{{1, 7, 0}, {2, 5, 2}, {2, 5, 9}})
	got := dropHeld(slices.Clone(ts), theirs)
	want := [][3]int64{{1, -3, 0}, {2, 5, 1}}
	if !slices.Equal(got, want) {
		t.Errorf("dropHeld = %v, want %v", got, want)
	}
}

// refineAndScramble refines d's mesh around a sphere, then migrates every
// odd root to the next rank, so families arrive out of id order and
// SPLs of the mixed ownership over-approximate.
func refineAndScramble(d *DistMesh, ind func(mesh.Vec3) float64) {
	d.M.TargetEdges(d.M.EdgeErrorGeometric(ind), 0.5)
	d.PropagateParallel()
	d.Refine()
	scramble(d)
}

// scramble migrates every odd global root to the next rank.
func scramble(d *DistMesh) {
	newOwner := make([]int32, len(d.RootOwner))
	for g, o := range d.RootOwner {
		newOwner[g] = (o + int32(g%2)) % int32(d.C.Size())
	}
	d.Migrate(newOwner)
}

// TestGlobalCountsAfterMigrateP7: after a migration at P=7 some SPLs name
// ranks that do not hold the edge (they hold both endpoints through other
// elements).  Merging each rank's sorted list against lower ranks' lists
// must still count every vertex and edge once: the serial mesh's counts.
func TestGlobalCountsAfterMigrateP7(t *testing.T) {
	global := mesh.Box(3, 3, 2, 3, 3, 2)
	ind := adapt.SphericalIndicator(mesh.Vec3{1.5, 1.5, 1.0}, 0.9, 0.5)
	serial := adapt.FromMesh(global, 0)
	serial.BuildEdgeElems()
	serial.TargetEdges(serial.EdgeErrorGeometric(ind), 0.5)
	serial.Propagate()
	serial.Refine()
	want := serial.ActiveCounts()

	const p = 7
	part := testPartition(global, p)
	msg.Run(p, func(c *msg.Comm) {
		d := New(c, global, part, 0)
		refineAndScramble(d, ind)
		if got := d.GlobalCounts(); got != want {
			t.Errorf("rank %d: counts %+v != serial %+v", c.Rank(), got, want)
		}

		// Send every potentially shared edge to the ranks its SPL names;
		// a receiver that does not hold it shows the over-approximation.
		d.M.EnsureEdgeElems()
		send := make([][]int64, p)
		var spl []int32
		for id := range d.M.EdgeV {
			if !d.M.EdgeAlive[id] || !d.M.EdgeLeaf(int32(id)) || len(d.M.EdgeElems[id]) == 0 {
				continue
			}
			a, b := d.M.EdgeV[id][0], d.M.EdgeV[id][1]
			for _, r := range d.appendEdgeSPL(spl[:0], int32(id)) {
				send[r] = append(send[r], int64(d.M.VertGID[a]), int64(d.M.VertGID[b]))
			}
		}
		parts := make([][]byte, p)
		for r := range parts {
			parts[r] = msg.PutInts(send[r])
		}
		phantom := 0
		for _, words := range c.Alltoall(parts, make([][]byte, p)) {
			w := msg.GetInts(words)
			for i := 0; i+1 < len(w); i += 2 {
				a, b := d.M.VertByGID(uint64(w[i])), d.M.VertByGID(uint64(w[i+1]))
				if a < 0 || b < 0 || d.M.EdgeByPair(a, b) < 0 {
					phantom++
				}
			}
		}
		if c.AllreduceInt64(int64(phantom), msg.SumInt64) == 0 && c.Rank() == 0 {
			t.Error("no SPL names a rank that lacks the edge: the over-approximated case is not exercised")
		}
	})
}

// TestFaceTreeRootsMatchFamilyBFaces: packing hands each family its
// slice of one per-call bucketing of face-tree roots.  Expanded to face
// trees, every slice must equal FamilyBFaces' scan of the whole mesh, on
// a mesh that was refined and then migrated.
func TestFaceTreeRootsMatchFamilyBFaces(t *testing.T) {
	global := mesh.Box(3, 3, 2, 3, 3, 2)
	ind := adapt.SphericalIndicator(mesh.Vec3{1.5, 1.5, 1.0}, 0.9, 0.5)
	part := testPartition(global, 3)
	msg.Run(3, func(c *msg.Comm) {
		d := New(c, global, part, 0)
		refineAndScramble(d, ind)
		start, flat := faceTreeRoots(d.M)
		refined := 0
		for _, g := range d.LocalRootIDs() {
			r := d.LocalRootElem(g)
			roots := flat[start[r]:start[r+1]]
			got := d.M.AppendFaceTrees(nil, roots)
			if want := d.M.FamilyBFaces(r); !slices.Equal(got, want) {
				t.Errorf("rank %d root %d: bucketed face trees %v, FamilyBFaces %v", c.Rank(), g, got, want)
			}
			refined += len(got) - len(roots)
		}
		if c.AllreduceInt64(int64(refined), msg.SumInt64) == 0 && c.Rank() == 0 {
			t.Error("no boundary face was refined: the face-tree walk is not exercised")
		}
	})
}

// TestPackFamilyWarmAllocsNothing: packing reuses the DistMesh's index
// scratch, so once the scratch and the output buffer have grown, packing
// every family allocates nothing.
func TestPackFamilyWarmAllocsNothing(t *testing.T) {
	global := mesh.Box(3, 3, 2, 3, 3, 2)
	ind := adapt.SphericalIndicator(mesh.Vec3{1.5, 1.5, 1.0}, 0.9, 0.5)
	part := testPartition(global, 2)
	var d *DistMesh
	msg.Run(2, func(c *msg.Comm) {
		dm := New(c, global, part, 2)
		refineAndScramble(dm, ind)
		if c.Rank() == 0 {
			d = dm
		}
	})
	start, flat := faceTreeRoots(d.M)
	roots := d.LocalRootIDs()
	var buf []int64
	pack := func() {
		buf = buf[:0]
		for _, g := range roots {
			r := d.localRoot[g]
			d.packFamily(&buf, g, flat[start[r]:start[r+1]])
		}
	}
	pack()
	if n := testing.AllocsPerRun(10, pack); n != 0 {
		t.Errorf("warm packing of %d families made %v allocations, want 0", len(roots), n)
	}
}

// TestGlobalCountsAllocsFlat: on an unchanged mesh, GlobalCounts builds
// no incidence and no per-edge SPL slice, so its allocations do not scale
// with the mesh.  Over a P=4 world on a refined mesh, the extra mallocs
// of 11 calls over 1, per call, must stay below the number of
// potentially shared edges (a per-edge allocation alone would reach it).
func TestGlobalCountsAllocsFlat(t *testing.T) {
	global := mesh.Box(5, 5, 4, 5, 5, 4)
	part := testPartition(global, 4)
	ind := adapt.SphericalIndicator(mesh.Vec3{2.5, 2.5, 2}, 1.5, 0.6)
	var sharedEdges int64
	mallocs := func(calls int) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		msg.Run(4, func(c *msg.Comm) {
			d := New(c, global, part, 0)
			d.M.TargetEdges(d.M.EdgeErrorGeometric(ind), 0.5)
			d.PropagateParallel()
			d.Refine()
			for i := 0; i < calls; i++ {
				d.GlobalCounts()
			}
			n := 0
			for id := range d.M.EdgeV {
				if d.M.EdgeAlive[id] && d.M.EdgeLeaf(int32(id)) && len(d.appendEdgeSPL(nil, int32(id))) > 0 {
					n++
				}
			}
			total := c.AllreduceInt64(int64(n), msg.SumInt64)
			if c.Rank() == 0 {
				sharedEdges = total
			}
		})
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	perCall := (float64(mallocs(11)) - float64(mallocs(1))) / 10
	t.Logf("%.1f mallocs per call, %d potentially shared edges", perCall, sharedEdges)
	if sharedEdges == 0 {
		t.Fatal("partition has no shared edges")
	}
	if perCall >= float64(sharedEdges) {
		t.Errorf("%.1f mallocs per GlobalCounts call, want fewer than the %d potentially shared edges",
			perCall, sharedEdges)
	}
}
