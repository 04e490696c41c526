package forest

import (
	"encoding/binary"
	"math"
	"testing"
)

// fuzzSpecials are the float64 values where the batched kernel's input
// sanitisation and sign-bit select could part ways with the scalar
// "x <= thr" compare.
var fuzzSpecials = []float64{
	math.NaN(),
	math.Float64frombits(0x7ff0000000000001), // signalling NaN payload
	math.Float64frombits(0xfff8000000000000), // negative quiet NaN
	math.Float64frombits(0xffffffffffffffff), // negative NaN, full payload
	math.Inf(1),
	math.Inf(-1),
	0,
	math.Copysign(0, -1),
	math.SmallestNonzeroFloat64,
	-math.SmallestNonzeroFloat64,
	math.Float64frombits(0x000fffffffffffff), // largest subnormal
	0x1p-1022,                                // smallest normal
	math.MaxFloat64,
	-math.MaxFloat64,
}

// extremeDataset spreads its classes over the float64 extremes -- huge
// magnitudes on both signs and subnormals -- so split thresholds sit
// where thr-x overflows to ±Inf or underflows to a subnormal.
func extremeDataset(t testing.TB) *Dataset {
	t.Helper()
	scales := []float64{-8e307, math.SmallestNonzeroFloat64 * 1e6, 8e307}
	var samples []Sample
	for c, scale := range scales {
		for i := 0; i < 40; i++ {
			v := make([]float64, 3)
			for d := range v {
				v[d] = scale * float64(1+(i*7+d*13+c)%9) / 9
			}
			samples = append(samples, Sample{Features: v, Label: string(rune('p' + c))})
		}
	}
	ds, err := NewDataset(samples)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// fuzzReader hands out fuzz input, reading zeros once it runs dry.
type fuzzReader []byte

func (r *fuzzReader) byte() byte {
	if len(*r) == 0 {
		return 0
	}
	b := (*r)[0]
	*r = (*r)[1:]
	return b
}

func (r *fuzzReader) uint64() uint64 {
	var buf [8]byte
	for i := range buf {
		buf[i] = r.byte()
	}
	return binary.LittleEndian.Uint64(buf[:])
}

// FuzzClassifyBatchMatchesScalar builds blocks of 1-130 vectors from raw
// float64 bit patterns, special values, split thresholds and their
// float64 neighbours, and short or over-long vectors, and requires the
// batched kernel to reproduce the scalar walk bit for bit: VotesBatch
// rows equal VotesInto, and ClassifyBatch labels and confidence bits
// equal Classify.
//
// Input layout: byte 0 picks the model, byte 1 the block size; per
// vector one length byte, then per feature one tag byte plus its
// payload.
func FuzzClassifyBatchMatchesScalar(f *testing.F) {
	models := []*Forest{
		Train(clusterDataset(f, 40, 401), Config{Trees: 31, Subspace: 2, Seed: 402}),
		Train(dyadicDataset(f, 50, 403), Config{Trees: 25, Subspace: 2, Seed: 404}),
		Train(extremeDataset(f), Config{Trees: 15, Subspace: 2, Seed: 405}),
	}
	thresholds := make([][]float64, len(models))
	for k, m := range models {
		if !m.batchable {
			f.Fatalf("model %d must be batchable", k)
		}
		for i, fi := range m.feat {
			if fi >= 0 {
				thresholds[k] = append(thresholds[k], m.thr[i])
			}
		}
	}

	f.Add([]byte{})
	f.Add([]byte{0, 63})
	f.Add([]byte{2, 129, 0, 1, 4, 1, 5, 1, 9})
	for model := byte(0); model < 3; model++ {
		seed := []byte{model, 70}
		for v := 0; v < 71; v++ {
			seed = append(seed, byte(v*37))
			for d := 0; d < 4; d++ {
				seed = append(seed, byte(v+d), byte(v*d), byte(v^d), 0x7f, 0xff)
			}
		}
		f.Add(seed)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		r := fuzzReader(data)
		k := int(r.byte()) % len(models)
		model, thr := models[k], thresholds[k]
		w := model.width
		vecs := make([][]float64, 1+int(r.byte())%130)
		for i := range vecs {
			n := w
			switch lb := r.byte(); {
			case lb >= 0xf0: // over-long: the kernel must read only the first w
				n = w + 1
			case lb >= 0xd0: // short: zero votes per the scalar contract
				n = int(lb) % w
			}
			v := make([]float64, n)
			for d := range v {
				switch tag := r.byte(); tag % 4 {
				case 0:
					v[d] = math.Float64frombits(r.uint64())
				case 1:
					v[d] = fuzzSpecials[int(r.byte())%len(fuzzSpecials)]
				case 2: // exactly on a split: x == thr must route left
					v[d] = thr[int(r.byte())%len(thr)]
				default: // one ulp either side of a split
					x := thr[int(r.byte())%len(thr)]
					if tag&4 != 0 {
						v[d] = math.Nextafter(x, math.Inf(1))
					} else {
						v[d] = math.Nextafter(x, math.Inf(-1))
					}
				}
			}
			vecs[i] = v
		}
		assertBatchMatchesScalar(t, model, vecs)
	})
}
