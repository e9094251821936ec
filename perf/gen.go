package main

import (
	"encoding/binary"
	"hash/crc32"
	"math"
	"sync/atomic"
)

// The harness owns its generators and value encoding (nothing here comes
// from internal/bench or internal/ycsb), so an engine change cannot alter
// the inputs the benchmark feeds it.

const (
	keyLen    = 24   // "user" + 20 decimal digits
	valLen    = 1024 // the paper's default value size
	userBytes = keyLen + valLen
	// Loaded key i carries number i*keyStride; keys inserted during a run
	// take the numbers in between, so they interleave with the loaded keys
	// across every partition instead of piling up at the end of the keyspace.
	keyStride = 16
)

// rng is splitmix64: tiny, fast, and identical on every Go version.
type rng uint64

func (r *rng) next() uint64 {
	*r += 0x9e3779b97f4a7c15
	z := uint64(*r)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float returns a uniform value in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

func mix64(x uint64) uint64 {
	r := rng(x)
	return r.next()
}

// shuffled returns a seeded random permutation of 0..n-1.
func shuffled(n int, r *rng) []uint32 {
	p := make([]uint32, n)
	for i := range p {
		p[i] = uint32(i)
	}
	for i := n - 1; i > 0; i-- {
		j := int(r.next() % uint64(i+1))
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// zipfian draws ranks in [0, n) with P(rank) ∝ 1/(rank+1)^theta (Gray et
// al.'s generator, the one YCSB uses).
type zipfian struct {
	n, alpha, zetan, eta, zeta2 float64
}

const zipfTheta = 0.99

func newZipfian(n uint64) *zipfian {
	z := &zipfian{n: float64(n), alpha: 1 / (1 - zipfTheta), zeta2: 1 + math.Pow(0.5, zipfTheta)}
	for i := uint64(1); i <= n; i++ {
		z.zetan += 1 / math.Pow(float64(i), zipfTheta)
	}
	z.eta = (1 - math.Pow(2/z.n, 1-zipfTheta)) / (1 - z.zeta2/z.zetan)
	return z
}

func (z *zipfian) rank(r *rng) uint64 {
	u := r.float()
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < z.zeta2 {
		return 1
	}
	k := uint64(z.n * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if k >= uint64(z.n) {
		k = uint64(z.n) - 1
	}
	return k
}

// appendKey appends the 24-byte key of number num.
func appendKey(dst []byte, num uint64) []byte {
	var b [keyLen]byte
	copy(b[:], "user")
	for i := keyLen - 1; i >= 4; i-- {
		b[i] = byte('0' + num%10)
		num /= 10
	}
	return append(dst, b[:]...)
}

// parseKey is appendKey's inverse.
func parseKey(key []byte) (uint64, bool) {
	if len(key) != keyLen || string(key[:4]) != "user" {
		return 0, false
	}
	var num uint64
	for _, c := range key[4:] {
		if c < '0' || c > '9' {
			return 0, false
		}
		num = num*10 + uint64(c-'0')
	}
	return num, true
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// values encodes self-describing values:
//
//	key number (8B LE) | version (4B LE) | CRC-32C of the rest (4B LE) | filler
//
// so any value read back can be attributed and verified without a copy of
// what was written. The filler is a slice of a seeded random pool, chosen
// by (number, version): incompressible, different per write, one memcpy.
type values struct{ pool []byte }

func newValues(seed uint64) *values {
	r := rng(seed ^ 0x76616c756573)
	pool := make([]byte, 1<<16)
	for i := 0; i < len(pool); i += 8 {
		binary.LittleEndian.PutUint64(pool[i:], r.next())
	}
	return &values{pool: pool}
}

func valueSum(v []byte) uint32 {
	return crc32.Update(crc32.Checksum(v[:12], castagnoli), castagnoli, v[16:])
}

// fill writes the value of (num, version) into buf, which must hold valLen
// bytes.
func (vs *values) fill(buf []byte, num uint64, version uint32) {
	binary.LittleEndian.PutUint64(buf, num)
	binary.LittleEndian.PutUint32(buf[8:], version)
	off := mix64(num*31+uint64(version)) % uint64(len(vs.pool)-valLen)
	copy(buf[16:valLen], vs.pool[off:])
	binary.LittleEndian.PutUint32(buf[12:], valueSum(buf[:valLen]))
}

// decodeValue verifies v's length and checksum and returns what it claims
// to be.
func decodeValue(v []byte) (num uint64, version uint32, ok bool) {
	if len(v) != valLen || binary.LittleEndian.Uint32(v[12:]) != valueSum(v) {
		return 0, 0, false
	}
	return binary.LittleEndian.Uint64(v), binary.LittleEndian.Uint32(v[8:]), true
}

type opKind uint8

const (
	opGet opKind = iota
	opPut
	opScan
	numKinds
)

var kindNames = [numKinds]string{"get", "put", "scan"}

// op is one generated request. A put's version is not part of the stream:
// it is the owner's next version of that key, assigned at execution.
type op struct {
	kind  opKind
	num   uint64 // key number; a scan's start key
	limit int    // scan length; 0 for no limit
	end   uint64 // key number a scan stops before; 0 for none
}

// opGen produces one client's request stream from (seed, workload, client).
type opGen struct {
	r               rng
	n               uint64 // loaded keys
	client, clients uint64
	// Shares of 100; whatever remains inserts new keys.
	getPct, putPct, scanPct int
	zipf                    *zipfian // nil draws keys uniformly
	// load, when non-empty, is issued first: one put per loaded key, in
	// this order, before the mix starts.
	load    []uint32
	inserts uint64
	insStep uint64 // coprime to n, so successive inserts never collide
}

func (g *opGen) next() op {
	if len(g.load) > 0 {
		i := g.load[0]
		g.load = g.load[1:]
		return op{kind: opPut, num: uint64(i) * keyStride}
	}
	p := int(g.r.next() % 100)
	switch {
	case p < g.getPct:
		return op{kind: opGet, num: g.pick() * keyStride}
	case p < g.getPct+g.putPct:
		// Snap to a key this client owns: a key has exactly one writer.
		i := g.pick()
		i = i - i%g.clients + g.client
		if i >= g.n {
			i -= g.clients
		}
		return op{kind: opPut, num: i * keyStride}
	case p < g.getPct+g.putPct+g.scanPct:
		return op{kind: opScan, num: g.pick() * keyStride, limit: 1 + int(g.r.next()%100)}
	}
	slot := (g.inserts*g.insStep + g.client*7919) % g.n
	g.inserts++
	return op{kind: opPut, num: slot*keyStride + 1 + g.client}
}

func (g *opGen) pick() uint64 {
	if g.zipf == nil {
		return g.r.next() % g.n
	}
	// Scramble ranks so the hot keys spread over the keyspace (and so over
	// partitions and tables) instead of clustering at its start.
	return mix64(g.zipf.rank(&g.r)) % g.n
}

// insertStep returns a prime that does not divide n.
func insertStep(n uint64) uint64 {
	for _, p := range []uint64{1000003, 1000033, 1000037} {
		if n%p != 0 {
			return p
		}
	}
	return 1
}

// model is the reference the store's answers are checked against. issued[i]
// is the newest version of loaded key i its owner has sent; a client's own
// keys must read back at exactly that version, anyone else's at a version
// no newer than it.
type model struct {
	issued   []atomic.Uint32
	inserted [][]uint64 // per client: numbers of the keys it inserted (version 1)
}

func newModel(n uint64, clients int) *model {
	return &model{issued: make([]atomic.Uint32, n), inserted: make([][]uint64, clients)}
}

func (m *model) liveKeys() int64 {
	var n int64
	for i := range m.issued {
		if m.issued[i].Load() > 0 {
			n++
		}
	}
	for _, ins := range m.inserted {
		n += int64(len(ins))
	}
	return n
}
