package sim

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// streamPair returns NewStream(seed) beside the math/rand stream it must
// reproduce.
func streamPair(seed int64) (got, want *rand.Rand) {
	return NewStream(seed), rand.New(rand.NewSource(seed))
}

// sameInt63 fails t at the first of n Int63 draws where the streams differ.
func sameInt63(t testing.TB, seed int64, got, want *rand.Rand, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if g, w := got.Int63(), want.Int63(); g != w {
			t.Fatalf("seed %d draw %d: Int63 = %d, math/rand %d", seed, i, g, w)
		}
	}
}

func TestStreamMatchesMathRand(t *testing.T) {
	t.Run("edge seeds", func(t *testing.T) {
		seeds := []int64{0, 1, -1, zeroSeed, -zeroSeed, math.MinInt64, math.MaxInt64}
		for k := int64(1); k <= 4; k++ {
			seeds = append(seeds, k*lehmerM, -k*lehmerM, k*lehmerM+1, k*lehmerM-1)
		}
		seeds = append(seeds, math.MaxInt64/lehmerM*lehmerM, math.MinInt64/lehmerM*lehmerM)
		for _, s := range seeds {
			got, want := streamPair(s)
			sameInt63(t, s, got, want, 3*streamLen)
		}
	})

	t.Run("random seeds", func(t *testing.T) {
		meta := rand.New(rand.NewSource(20261015))
		for i := 0; i < 2000; i++ {
			s := int64(meta.Uint64())
			got, want := streamPair(s)
			sameInt63(t, s, got, want, 3000)
		}
	})

	t.Run("derived draws", func(t *testing.T) {
		for _, s := range []int64{1, 42, -7, 1 << 40} {
			got, want := streamPair(s)
			for i := 0; i < 2000; i++ {
				if g, w := got.Uint64(), want.Uint64(); g != w {
					t.Fatalf("seed %d draw %d: Uint64 = %d, want %d", s, i, g, w)
				}
				if g, w := got.Float64(), want.Float64(); g != w {
					t.Fatalf("seed %d draw %d: Float64 = %v, want %v", s, i, g, w)
				}
				if g, w := got.Intn(1000+i), want.Intn(1000+i); g != w {
					t.Fatalf("seed %d draw %d: Intn = %d, want %d", s, i, g, w)
				}
				if g, w := got.Int31n(int32(7+i)), want.Int31n(int32(7+i)); g != w {
					t.Fatalf("seed %d draw %d: Int31n = %d, want %d", s, i, g, w)
				}
				if g, w := got.ExpFloat64(), want.ExpFloat64(); g != w {
					t.Fatalf("seed %d draw %d: ExpFloat64 = %v, want %v", s, i, g, w)
				}
				if g, w := got.NormFloat64(), want.NormFloat64(); g != w {
					t.Fatalf("seed %d draw %d: NormFloat64 = %v, want %v", s, i, g, w)
				}
			}
			gp, wp := got.Perm(500), want.Perm(500)
			for i := range gp {
				if gp[i] != wp[i] {
					t.Fatalf("seed %d: Perm differs at %d: %d, want %d", s, i, gp[i], wp[i])
				}
			}
		}
	})

	t.Run("reseed mid-stream", func(t *testing.T) {
		got, want := streamPair(5)
		sameInt63(t, 5, got, want, 1000)
		for _, s := range []int64{5, 0, -123456789, math.MaxInt64} {
			got.Seed(s)
			want.Seed(s)
			sameInt63(t, s, got, want, 2*streamLen)
		}
	})

	// The lazy register's seams: the last lazy draw, the draw that builds
	// the register and the one after it, and re-seeding on either side.
	t.Run("lazy seams", func(t *testing.T) {
		for _, n := range []int{lazyDraws - 1, lazyDraws, lazyDraws + 1} {
			for _, s := range []int64{1, 77, -zeroSeed} {
				got, want := streamPair(s)
				sameInt63(t, s, got, want, n)
				sameInt63(t, s, got, want, streamLen)
			}
		}
	})

	t.Run("reseed while lazy", func(t *testing.T) {
		got, want := streamPair(9)
		sameInt63(t, 9, got, want, lazyDraws/2)
		for _, s := range []int64{9, 10, math.MinInt64} {
			got.Seed(s)
			want.Seed(s)
			sameInt63(t, s, got, want, lazyDraws-1)
		}
		sameInt63(t, math.MinInt64, got, want, 2*streamLen)
	})

	t.Run("reseed after build returns to lazy", func(t *testing.T) {
		got, want := streamPair(11)
		sameInt63(t, 11, got, want, lazyDraws+1)
		for _, s := range []int64{11, 12, 0} {
			got.Seed(s)
			want.Seed(s)
			sameInt63(t, s, got, want, lazyDraws)
			sameInt63(t, s, got, want, 2)
		}
	})
}

func FuzzStreamMatchesMathRand(f *testing.F) {
	f.Add(int64(0), uint16(10))
	f.Add(int64(lehmerM), uint16(700))
	f.Add(int64(math.MinInt64), uint16(1300))
	for _, n := range []uint16{lazyDraws - 1, lazyDraws, lazyDraws + 1, streamTap, streamLen - streamTap, streamLen} {
		f.Add(int64(n)*7919, n)
	}
	f.Fuzz(func(t *testing.T, seed int64, n uint16) {
		got, want := streamPair(seed)
		sameInt63(t, seed, got, want, int(n))
	})
}

var benchStream *rand.Rand

// TestNewStreamAllocs pins the constructor's cost: the source and the
// rand.Rand over it, two small allocations and no register.
func TestNewStreamAllocs(t *testing.T) {
	const want = 2
	if got := testing.AllocsPerRun(100, func() { benchStream = NewStream(12345) }); got != want {
		t.Fatalf("NewStream allocates %v times, want %d (source + Rand)", got, want)
	}
	const runs = 1000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		benchStream = NewStream(int64(i))
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per > 128 {
		t.Fatalf("NewStream allocates %d B, want at most 128 (no register)", per)
	}
}

// TestStreamRegisterBuiltOnce pins when the register is allocated: not
// during the first lazyDraws draws, exactly once on the next one, and
// never again after a re-seed.
func TestStreamRegisterBuiltOnce(t *testing.T) {
	var s stream
	lazy := testing.AllocsPerRun(20, func() {
		s.Seed(99)
		for i := 0; i < lazyDraws; i++ {
			s.Uint64()
		}
	})
	if lazy != 0 || s.vec != nil {
		t.Fatalf("first %d draws allocate %v times (register built: %v), want 0", lazyDraws, lazy, s.vec != nil)
	}
	const runs = 20
	fresh := make([]stream, runs+1)
	i := 0
	built := testing.AllocsPerRun(runs, func() {
		f := &fresh[i]
		i++
		f.Seed(99)
		for j := 0; j <= lazyDraws; j++ {
			f.Uint64()
		}
	})
	if built != 1 {
		t.Fatalf("draw %d allocates %v times, want 1 (the register)", lazyDraws+1, built)
	}
	again := testing.AllocsPerRun(20, func() {
		s.Seed(99)
		for i := 0; i < 2*streamLen; i++ {
			s.Uint64()
		}
	})
	if again != 0 {
		t.Fatalf("a re-seeded stream allocates %v times, want 0 (register kept)", again)
	}
}

func BenchmarkNewStream(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchStream = NewStream(int64(i))
	}
}

// BenchmarkNewStreamStd is the math/rand constructor NewStream replaces.
func BenchmarkNewStreamStd(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchStream = rand.New(rand.NewSource(int64(i)))
	}
}

// BenchmarkStreamFirst128Draws is a typical stream's whole life: built,
// then drawn from a few dozen to a hundred times (lazy draws only).
func BenchmarkStreamFirst128Draws(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := NewStream(int64(i))
		for j := 0; j < 128; j++ {
			r.Int63()
		}
		benchStream = r
	}
}

// BenchmarkStreamFirst128DrawsStd is the same life on math/rand.
func BenchmarkStreamFirst128DrawsStd(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := rand.New(rand.NewSource(int64(i)))
		for j := 0; j < 128; j++ {
			r.Int63()
		}
		benchStream = r
	}
}
