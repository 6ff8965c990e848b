package port

// Rand is a small, fast, deterministic pseudo-random source
// (splitmix64-seeded xorshift128+). Each port owns one, derived from the
// system seed and the port ID the same way on every backend, so workload
// shapes are reproducible regardless of goroutine scheduling.
type Rand struct {
	s0, s1 uint64
}

func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// NewRand returns a source seeded from seed.
func NewRand(seed uint64) Rand {
	var r Rand
	r.s0 = splitmix64(&seed)
	r.s1 = splitmix64(&seed)
	if r.s0 == 0 && r.s1 == 0 {
		r.s1 = 1
	}
	return r
}

// Uint64 returns a uniformly distributed 64-bit value.
func (r *Rand) Uint64() uint64 {
	x, y := r.s0, r.s1
	r.s0 = y
	x ^= x << 23
	x ^= x >> 17
	x ^= y ^ (y >> 26)
	r.s1 = x
	return x + y
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("port: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Int63 returns a non-negative 63-bit value.
func (r *Rand) Int63() int64 { return int64(r.Uint64() >> 1) }

// Float64 returns a uniform value in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Perm returns a pseudo-random permutation of [0, n).
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}
