package window

import (
	"math/rand"
	"testing"

	"assasin/internal/telemetry"
)

// logged is one recorded Add/Observe with the bucket (epoch) it landed in.
type logged struct {
	epoch int64
	n     int64
}

// refSum is the reference windowed count: the events whose bucket lies in
// [from, to], straight from the event log.
func refSum(log []logged, from, to int64) int64 {
	var sum int64
	for _, ev := range log {
		if ev.epoch >= from && ev.epoch <= to {
			sum += ev.n
		}
	}
	return sum
}

// refHist folds the logged samples of buckets [from, to] into a histogram.
func refHist(log []logged, from, to int64) telemetry.Histogram {
	var h telemetry.Histogram
	for _, ev := range log {
		if ev.epoch >= from && ev.epoch <= to {
			h.Observe(ev.n)
		}
	}
	return h
}

// TestRingReadsMatchEventLog drives random event streams — runs that start
// at epoch 0 and later, steps inside a bucket, across a few buckets and
// past the whole window — and checks every windowed read against sums over
// the event log after each event, for ring sizes 1 to 7 and every span,
// and the run-cumulative histogram against every sample so far.
func TestRingReadsMatchEventLog(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(7)
		w := New(Config{WindowPs: int64(n) * 100, Buckets: n})
		r := w.Rate("r")
		h := w.Hist("h")
		var rates, samples []logged
		now := int64(rng.Intn(3)) * int64(rng.Intn(40*n)) * 10
		for ev := 0; ev < 60; ev++ {
			switch rng.Intn(5) {
			case 0:
				now += int64(rng.Intn(100 * (n + 2)))
			case 1:
				now += 100
			default:
				now += int64(rng.Intn(40))
			}
			add, v := int64(1+rng.Intn(5)), int64(rng.Intn(5000))-100
			r.Add(now, add)
			h.Observe(now, v)
			rates = append(rates, logged{w.epoch, add})
			samples = append(samples, logged{w.epoch, v})
			if cur := int(w.epoch % int64(w.n)); w.cur != cur {
				t.Fatalf("trial %d: cached slot %d, epoch %d gives %d", trial, w.cur, w.epoch, cur)
			}
			e := w.epoch
			if got, want := *h.Cumulative(), refHist(samples, 0, e); got != want {
				t.Fatalf("trial %d n=%d epoch %d: Cumulative = %+v, want %+v", trial, n, e, got, want)
			}
			if got, want := r.WindowCount(), refSum(rates, e-int64(n)+1, e); got != want {
				t.Fatalf("trial %d n=%d epoch %d: WindowCount = %d, want %d", trial, n, e, got, want)
			}
			for k := 0; k <= n+1; k++ {
				span := int64(k) * 100
				kb := int64(w.spanBuckets(span))
				if got, want := r.Last(span), refSum(rates, e-kb+1, e); got != want {
					t.Fatalf("trial %d n=%d epoch %d: Last(%d) = %d, want %d", trial, n, e, span, got, want)
				}
				kc := min(kb, int64(n-1))
				if got, want := r.LastClosed(span), refSum(rates, e-kc, e-1); got != want {
					t.Fatalf("trial %d n=%d epoch %d: LastClosed(%d) = %d, want %d", trial, n, e, span, got, want)
				}
				if got, want := *h.Last(span), refHist(samples, e-kb+1, e); got != want {
					t.Fatalf("trial %d n=%d epoch %d: Hist.Last(%d) = %+v, want %+v", trial, n, e, span, got, want)
				}
			}
		}
	}
}
