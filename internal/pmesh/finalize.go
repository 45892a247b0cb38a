package pmesh

import (
	"sort"

	"plum/internal/adapt"
	"plum/internal/msg"
)

// Finalization (paper Section 3): "it is sometimes necessary to create a
// single global mesh after one or more adaption steps.  Some post
// processing tasks, such as visualization, need to process the whole
// grid simultaneously...  The finalization phase accomplishes this task
// by connecting individual subgrids into one global mesh...  a gather
// operation is performed by a host processor to concatenate the local
// data structures into a global mesh."

// Finalize gathers every rank's element families at the host and
// returns the connected global adapted mesh on rank 0 (nil elsewhere).
// The distributed mesh is left untouched; global ids splice the shared
// objects back together exactly as migration unpacking does.
// Collective.
func (d *DistMesh) Finalize() *adapt.Mesh {
	// Pack all local families (in ascending global root order for
	// determinism), preserving the local mesh.
	var buf []int64
	faceStart, faceRoots := faceTreeRoots(d.M)
	elems := 0
	for _, g := range d.LocalRootIDs() {
		r := d.localRoot[g]
		elems += d.packFamily(&buf, g, faceRoots[faceStart[r]:faceStart[r+1]])
	}
	d.C.Compute(workPackPerElem * float64(elems))
	parts := d.C.Gather(0, msg.PutInts(buf), make([][]byte, d.C.Size()))
	if d.C.Rank() != 0 {
		return nil
	}

	// The host unpacks every family into a fresh mesh.  Receiving its
	// own payload through the same path keeps the code identical for
	// all ranks' data.
	out := adapt.NewEmpty(d.M.NComp)
	type entry struct {
		g     int32
		words []int64
		pos   int
	}
	var all []entry
	for r := 0; r < d.C.Size(); r++ {
		words := msg.GetInts(parts[r])
		for pos := 0; pos < len(words); {
			g := int32(words[pos])
			start := pos
			pos = skipFamily(words, pos, d.M.NComp)
			all = append(all, entry{g: g, words: words, pos: start})
		}
	}
	d.C.ReleaseParts(parts) // every part is decoded into words
	// Deterministic global order by root id.
	sort.Slice(all, func(i, j int) bool { return all[i].g < all[j].g })
	var sc unpackScratch
	for _, e := range all {
		unpackFamilyInto(out, e.words, e.pos, &sc)
	}
	return out
}

// skipFamily advances past one serialized family without unpacking it.
func skipFamily(words []int64, pos, ncomp int) int {
	pos++ // root id
	nverts := int(words[pos])
	pos += 1 + nverts*(4+ncomp)
	nelems := int(words[pos])
	pos += 1 + nelems*5
	nedges := int(words[pos])
	pos += 1 + nedges*3
	nbf := int(words[pos])
	pos += 1 + nbf*4
	return pos
}
