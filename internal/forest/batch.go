package forest

import (
	"math"
	"math/bits"
	"sync"
)

// This file implements batched, branch-free forest inference over a packed
// mirror of the level-order arena.
//
// Layout. buildBatchArena derives two parallel arrays from the scalar
// arena: meta[i] packs (leftChild << featShift) | feature into one int32,
// and bthr[i] holds the float64 split threshold. The breadth-first layout
// guarantees a node's children are adjacent (right == left+1), so a single
// child index suffices and the per-node working set is 12 bytes -- small
// enough that the quick-scale model's trees sit in L1 and the full-scale
// model in L2. Leaves carry meta = i<<shift (a self-loop with feature 0)
// and bthr = +Inf.
//
// Advance. For a lane at node i with feature value x the next node is
//
//	b  := int32(math.Float64bits(bthr[i]-x) >> 63)   // 1 iff x > thr
//	ni := meta[i]>>featShift + b
//
// with no data-dependent branch: the sign bit of thr-x is the select. The
// identity "sign(thr-x) == (x > thr)" holds for all finite x and thr
// because distinct float64s never subtract to exactly zero (gradual
// underflow) and x == thr yields +0 (sign 0, i.e. left, matching the
// scalar walk's x <= thr). Feature values are sanitized at gather time to
// the finite range [-MaxFloat64, MaxFloat64] (NaN and +Inf map to
// MaxFloat64, which routes right at every split exactly as the scalar
// walk's "NaN <= thr is false" does; -Inf maps to -MaxFloat64, routing
// left). With x finite, a leaf's +Inf threshold gives thr-x = +Inf, sign
// 0, so b == 0 and ni == i deterministically -- leaves self-loop and the
// loop needs no depth bound. buildBatchArena refuses models
// with |thr| >= MaxFloat64 (batchable=false, scalar fallback), which is
// the only case where sanitization could disagree with the scalar compare.
//
// Lane compaction. A level-synchronous sweep would cost max-path-length
// advances per lane; instead each tree walks a dense worklist of live
// lanes and retires a lane the moment it self-loops (ni == i), swapping
// the last live lane into its slot. Total advances equal the sum of
// actual path lengths (+1 self-loop detect per lane), the same work the
// scalar walk does -- but the lanes are independent, so the CPU may
// overlap their load chains. The per-advance bookkeeping is not free: on
// a 2-core AVX-512 Xeon the kernel measures slower per sample than the
// scalar walk (DESIGN.md §8.4).

// BatchScratch holds the reusable buffers for one in-flight VotesBatch /
// ClassifyBatchInto call. The zero value is ready to use; buffers grow to
// the largest block seen and are retained, so steady-state batch
// classification performs no allocations. Not safe for concurrent use.
type BatchScratch struct {
	block []float64 // sanitized feature matrix, sample-major, m*width
	idx   []int32   // current node per live lane
	lane  []int32   // sample index per live lane (compacted with idx)
	votes []int32   // per-sample per-class tallies, m*numClasses
	sv    []int     // scalar-fallback vote buffer
}

func growI32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

func growF64(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// buildBatchArena derives the packed batch mirror (meta/bthr) from the
// scalar arena. It must run after the scalar arrays are final and in
// breadth-first order. When the model cannot be packed -- zero feature
// width, a child index too large for the packed field, or a threshold at
// or beyond ±MaxFloat64 (where gather-time sanitization would diverge
// from the scalar compare) -- it leaves batchable false and ClassifyBatch
// degrades to the scalar walk, keeping correctness unconditional.
func (f *Forest) buildBatchArena() {
	f.batchable = false
	total := len(f.feat)
	if f.width <= 0 || total == 0 {
		return
	}
	shift := uint32(bits.Len(uint(f.width - 1)))
	if shift == 0 {
		shift = 1
	}
	if uint(total-1) > uint(math.MaxInt32)>>shift {
		return
	}
	meta := make([]int32, total)
	bthr := make([]float64, total)
	for i, fi := range f.feat {
		if fi < 0 {
			meta[i] = int32(i) << shift
			bthr[i] = math.Inf(1)
			continue
		}
		t := f.thr[i]
		if !(t > -math.MaxFloat64 && t < math.MaxFloat64) {
			return
		}
		meta[i] = f.kids[2*i]<<shift | fi
		bthr[i] = t
	}
	f.featShift = shift
	f.meta = meta
	f.bthr = bthr
	f.batchable = true
}

// batchMin is the block size below which ClassifyBatchInto uses the scalar
// walk: tiny blocks cannot amortize the gather and per-tree lane resets.
const batchMin = 4

// VotesBatch tallies per-class votes for a block of feature vectors into
// dst, flattened sample-major (row i, length NumClasses, is the vote
// vector for vecs[i], indexed like Classes()). dst is resized, zeroed and
// returned, reallocating only when too small. Vote counts are identical
// to calling VotesInto per vector: vectors shorter than the trained width
// get all-zero rows, and NaN features route the same way the scalar
// compare does. sc may be nil (a temporary scratch is then allocated).
func (f *Forest) VotesBatch(dst []int32, vecs [][]float64, sc *BatchScratch) []int32 {
	m := len(vecs)
	nc := len(f.classes)
	if cap(dst) < m*nc {
		dst = make([]int32, m*nc)
	} else {
		dst = dst[:m*nc]
	}
	for i := range dst {
		dst[i] = 0
	}
	if m == 0 {
		return dst
	}
	if !f.batchable {
		f.votesScalarFallback(dst, vecs, sc)
		return dst
	}
	if sc == nil {
		sc = &BatchScratch{}
	}
	f.votesBatch(dst, vecs, sc)
	return dst
}

// votesScalarFallback services VotesBatch for models the packed encoding
// cannot represent.
func (f *Forest) votesScalarFallback(dst []int32, vecs [][]float64, sc *BatchScratch) {
	nc := len(f.classes)
	var sv []int
	if sc != nil {
		sv = sc.sv
	}
	for s, v := range vecs {
		sv = f.VotesInto(sv, v)
		row := dst[s*nc : (s+1)*nc]
		for c, n := range sv {
			row[c] = int32(n)
		}
	}
	if sc != nil {
		sc.sv = sv
	}
}

// votesBatch is the packed-arena kernel. dst must be zeroed m*nc.
func (f *Forest) votesBatch(dst []int32, vecs [][]float64, sc *BatchScratch) {
	m := len(vecs)
	nc := len(f.classes)
	w := f.width

	sc.block = growF64(sc.block, m*w)
	sc.idx = growI32(sc.idx, m)
	sc.lane = growI32(sc.lane, m)
	block, idx, lane := sc.block, sc.idx, sc.lane

	// Gather: copy each classifiable vector into a dense sample-major
	// block (row s holds vecs[s]; the kernel indexes rows by sample),
	// clamping every value into the finite float64 range so the sign-bit
	// select below is always defined (see file comment). Vectors shorter
	// than the trained width are excluded from the lane set and keep
	// their all-zero vote rows -- the scalar short-vector contract.
	live := int32(0)
	for s, v := range vecs {
		if len(v) < w {
			continue
		}
		row := block[s*w : s*w+w]
		for d := 0; d < w; d++ {
			x := v[d]
			if !(x >= -math.MaxFloat64) { // NaN or -Inf
				if x < 0 { // -Inf
					x = -math.MaxFloat64
				} else { // NaN routes right everywhere, like the scalar walk
					x = math.MaxFloat64
				}
			} else if x > math.MaxFloat64 { // +Inf
				x = math.MaxFloat64
			}
			row[d] = x
		}
		lane[live] = int32(s)
		live++
	}
	if live == 0 {
		return
	}

	meta, bthr, labels := f.meta, f.bthr, f.labels
	shift := f.featShift
	featMask := int32(1)<<shift - 1
	for t := 0; t < len(f.starts)-1; t++ {
		root := f.starts[t]
		// Reset the lane worklist; compaction below destroys its order,
		// but idx/lane swap in tandem so pairs stay aligned.
		for k := int32(0); k < live; k++ {
			idx[k] = root
		}
		active := live
		for active > 0 {
			for k := int32(0); k < active; {
				i := idx[k]
				mt := meta[i]
				x := block[int(lane[k])*w+int(mt&featMask)]
				b := int32(math.Float64bits(bthr[i]-x) >> 63)
				ni := mt>>shift + b
				if ni == i {
					dst[int(lane[k])*nc+int(labels[i])]++
					active--
					idx[k] = idx[active]
					lane[k], lane[active] = lane[active], lane[k]
					continue
				}
				idx[k] = ni
				k++
			}
		}
	}
}

// batchPool recycles BatchScratch for ClassifyBatch, whose signature (the
// classify.BatchClassifier entry point) cannot take scratch.
var batchPool = sync.Pool{New: func() any { return new(BatchScratch) }}

// ClassifyBatch classifies a block of feature vectors, writing the
// majority-vote label and confidence for vecs[i] into labels[i] and
// confs[i] (both must have len(vecs) elements). Results are identical to
// calling Classify per vector; blocks of batchMin or more vectors go
// through the batched kernel, smaller ones (and models the packed arena
// cannot represent) take the scalar walk. Steady-state allocation-free.
func (f *Forest) ClassifyBatch(vecs [][]float64, labels []string, confs []float64) {
	sc := batchPool.Get().(*BatchScratch)
	f.ClassifyBatchInto(sc, vecs, labels, confs)
	batchPool.Put(sc)
}

// ClassifyBatchInto is ClassifyBatch with caller-owned scratch, for tight
// loops that want zero synchronization on the pool.
func (f *Forest) ClassifyBatchInto(sc *BatchScratch, vecs [][]float64, labels []string, confs []float64) {
	m := len(vecs)
	if m == 0 {
		return
	}
	_ = labels[m-1]
	_ = confs[m-1]
	if !f.batchable || m < batchMin {
		sv := sc.sv
		for i, v := range vecs {
			labels[i], confs[i], sv = f.ClassifyBuf(v, sv)
		}
		sc.sv = sv
		return
	}
	nc := len(f.classes)
	sc.votes = f.VotesBatch(sc.votes, vecs, sc)
	votes := sc.votes
	trees := float64(f.NumTrees())
	for i := 0; i < m; i++ {
		row := votes[i*nc : (i+1)*nc]
		best, bestN := 0, int32(-1)
		for c, n := range row {
			if n > bestN {
				best, bestN = c, n
			}
		}
		labels[i] = f.classes[best]
		confs[i] = float64(bestN) / trees
	}
}
