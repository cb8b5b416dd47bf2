package telemetry

import (
	"math"
	"math/rand"
	"testing"
)

// shiftBucketOf is the original shift-loop bucket index, kept as the
// reference the bits.Len64 form must match.
func shiftBucketOf(v int64) int {
	if v <= 0 {
		return 0
	}
	b := 1
	for v > 1 {
		v >>= 1
		b++
	}
	return b
}

func TestBucketOfMatchesShiftLoop(t *testing.T) {
	vals := []int64{0, -1, -2, -1 << 40, math.MinInt64, math.MaxInt64}
	for k := 0; k <= 62; k++ {
		p := int64(1) << k
		vals = append(vals, p-1, p, p+1)
	}
	for _, v := range vals {
		if got, want := bucketOf(v), shiftBucketOf(v); got != want {
			t.Errorf("bucketOf(%d) = %d, want %d", v, got, want)
		}
	}
}

// TestResetAndAbsorbTouchUsedBuckets pins that the used-range Reset leaves
// a histogram identical to a fresh one and that the used-range Absorb
// equals a full bucket-wise merge, for samples spanning every bucket.
func TestResetAndAbsorbTouchUsedBuckets(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	sample := func() int64 {
		switch rng.Intn(4) {
		case 0:
			return -rng.Int63n(1000)
		case 1:
			return rng.Int63n(64)
		default:
			return rng.Int63() >> rng.Intn(63)
		}
	}
	for trial := 0; trial < 200; trial++ {
		var a, b Histogram
		for i := rng.Intn(20); i > 0; i-- {
			a.Observe(sample())
		}
		for i := rng.Intn(20); i > 0; i-- {
			b.Observe(sample())
		}
		want := a
		if b.count > 0 {
			for i, n := range b.buckets {
				want.buckets[i] += n
			}
			if want.count == 0 || b.min < want.min {
				want.min = b.min
			}
			want.count += b.count
			want.sum += b.sum
			want.max = max(want.max, b.max)
		}
		a.Absorb(&b)
		if a != want {
			t.Fatalf("trial %d: Absorb = %+v, want %+v", trial, a, want)
		}
		a.Reset()
		if a != (Histogram{}) {
			t.Fatalf("trial %d: Reset left %+v", trial, a)
		}
	}
}
