package prng

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"testing"

	"ctgauss/internal/bitslice/dispatch"
)

// backends lists every ChaCha20 kernel this CPU can run: the portable
// one, then each detected SIMD backend.
func backends() []dispatch.Backend {
	return append([]dispatch.Backend{dispatch.Portable}, dispatch.Detected()...)
}

// forEachBackend runs f as a subtest with each backend forced.
func forEachBackend(t *testing.T, f func(t *testing.T)) {
	for _, b := range backends() {
		t.Run(b.String(), func(t *testing.T) {
			restore, err := dispatch.Force(b)
			if err != nil {
				t.Fatal(err)
			}
			defer restore()
			f(t)
		})
	}
}

// RFC 8439 §2.3.2 test vector, through every kernel.
func TestChaCha20RFC8439Block(t *testing.T) {
	var key [32]byte
	for i := range key {
		key[i] = byte(i)
	}
	nonce := [12]byte{0x00, 0x00, 0x00, 0x09, 0x00, 0x00, 0x00, 0x4a, 0, 0, 0, 0}
	want, _ := hex.DecodeString(
		"10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e" +
			"d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e")
	forEachBackend(t, func(t *testing.T) {
		got := KeystreamAt(key, 1, nonce)
		if !bytes.Equal(got[:], want) {
			t.Fatalf("ChaCha20 block mismatch:\n got %x\nwant %x", got, want)
		}
	})
}

// refQuarterRound and refChaCha20 are the original one-block-at-a-time
// scalar generator, kept as the oracle every kernel must match byte for
// byte, including the carry of state[12] into state[13].
func refQuarterRound(a, b, c, d uint32) (uint32, uint32, uint32, uint32) {
	a += b
	d ^= a
	d = d<<16 | d>>16
	c += d
	b ^= c
	b = b<<12 | b>>20
	a += b
	d ^= a
	d = d<<8 | d>>24
	c += d
	b ^= c
	b = b<<7 | b>>25
	return a, b, c, d
}

type refChaCha20 struct {
	state [16]uint32
	buf   [64]byte
	used  int
}

// newRefChaCha20 shares the key setup with newChaCha20; the RFC 8439
// known-answer test pins that setup.
func newRefChaCha20(key *[32]byte, counter uint32, nonce *[12]byte) *refChaCha20 {
	return &refChaCha20{state: newChaCha20(key, counter, nonce).state, used: 64}
}

func (c *refChaCha20) block() {
	var x [16]uint32
	copy(x[:], c.state[:])
	for round := 0; round < 10; round++ {
		x[0], x[4], x[8], x[12] = refQuarterRound(x[0], x[4], x[8], x[12])
		x[1], x[5], x[9], x[13] = refQuarterRound(x[1], x[5], x[9], x[13])
		x[2], x[6], x[10], x[14] = refQuarterRound(x[2], x[6], x[10], x[14])
		x[3], x[7], x[11], x[15] = refQuarterRound(x[3], x[7], x[11], x[15])
		x[0], x[5], x[10], x[15] = refQuarterRound(x[0], x[5], x[10], x[15])
		x[1], x[6], x[11], x[12] = refQuarterRound(x[1], x[6], x[11], x[12])
		x[2], x[7], x[8], x[13] = refQuarterRound(x[2], x[7], x[8], x[13])
		x[3], x[4], x[9], x[14] = refQuarterRound(x[3], x[4], x[9], x[14])
	}
	for i := range x {
		x[i] += c.state[i]
	}
	for i, v := range x {
		binary.LittleEndian.PutUint32(c.buf[4*i:], v)
	}
	c.state[12]++
	if c.state[12] == 0 {
		c.state[13]++
	}
	c.used = 0
}

func (c *refChaCha20) Fill(p []byte) {
	for len(p) > 0 {
		if c.used == 64 {
			c.block()
		}
		n := copy(p, c.buf[c.used:])
		c.used += n
		p = p[n:]
	}
}

// TestChaCha20KernelIdentity pins every kernel to the scalar oracle over
// random keys and nonces, counters just below 2^32 (so the carry into
// state[13] lands inside a refill, including nonce word 0 = 2^32-1),
// and every Fill length from 1 to 5000, from a fresh generator and
// mid-stream.
func TestChaCha20KernelIdentity(t *testing.T) {
	forEachBackend(t, func(t *testing.T) {
		key := [32]byte{1, 2, 3}
		want := make([]byte, 5000)
		newRefChaCha20(&key, 0, &[12]byte{}).Fill(want)
		for n := 1; n <= len(want); n++ {
			got := make([]byte, n)
			newChaCha20(&key, 0, &[12]byte{}).Fill(got)
			if !bytes.Equal(got, want[:n]) {
				t.Fatalf("Fill(%d) differs from the scalar oracle", n)
			}
		}

		rng := rand.New(rand.NewSource(8439))
		for trial := 0; trial < 200; trial++ {
			var key [32]byte
			var nonce [12]byte
			rng.Read(key[:])
			rng.Read(nonce[:])
			if trial%5 == 0 {
				binary.LittleEndian.PutUint32(nonce[:], ^uint32(0))
			}
			counter := rng.Uint32()
			if trial%2 == 0 {
				counter = -uint32(1 + trial/2%16) // 2^32-k, k = 1…16
			}
			got, want := newChaCha20(&key, counter, &nonce), newRefChaCha20(&key, counter, &nonce)
			for total := 0; total < 6000; {
				n := 1 + rng.Intn(5000)
				g, w := make([]byte, n), make([]byte, n)
				got.Fill(g)
				want.Fill(w)
				if !bytes.Equal(g, w) {
					t.Fatalf("trial %d (counter %#x): Fill(%d) after %d bytes differs from the scalar oracle", trial, counter, n, total)
				}
				total += n
			}
		}
	})
}

// TestChaCha20BackendSwitchMidStream switches the active kernel between
// refills (and mid-buffer) and checks the stream never notices.
func TestChaCha20BackendSwitchMidStream(t *testing.T) {
	var key [32]byte
	copy(key[:], "switch")
	all := backends()
	for _, counter := range []uint32{0, ^uint32(39)} {
		want := make([]byte, 64*1024)
		newRefChaCha20(&key, counter, &[12]byte{}).Fill(want)
		c := newChaCha20(&key, counter, &[12]byte{})
		rng := rand.New(rand.NewSource(int64(counter)))
		for off := 0; off < len(want); {
			restore, err := dispatch.Force(all[rng.Intn(len(all))])
			if err != nil {
				t.Fatal(err)
			}
			n := min(1+rng.Intn(3000), len(want)-off)
			got := make([]byte, n)
			c.Fill(got)
			restore()
			if !bytes.Equal(got, want[off:off+n]) {
				t.Fatalf("counter %#x: bytes %d…%d differ after a backend switch", counter, off, off+n)
			}
			off += n
		}
	}
}

// BenchmarkChaCha20Fill measures 512-byte fills (one BitReader refill)
// under each kernel.
func BenchmarkChaCha20Fill(b *testing.B) {
	for _, be := range backends() {
		b.Run(be.String(), func(b *testing.B) {
			restore, err := dispatch.Force(be)
			if err != nil {
				b.Fatal(err)
			}
			defer restore()
			c := MustChaCha20([]byte("bench"))
			p := make([]byte, 512)
			b.SetBytes(int64(len(p)))
			for b.Loop() {
				c.Fill(p)
			}
		})
	}
}

func TestChaCha20Deterministic(t *testing.T) {
	a := MustChaCha20([]byte("seed"))
	b := MustChaCha20([]byte("seed"))
	pa := make([]byte, 1000)
	pb := make([]byte, 1000)
	a.Fill(pa)
	b.Fill(pb)
	if !bytes.Equal(pa, pb) {
		t.Fatal("same seed must give same stream")
	}
	c := MustChaCha20([]byte("other"))
	pc := make([]byte, 1000)
	c.Fill(pc)
	if bytes.Equal(pa, pc) {
		t.Fatal("different seeds must differ")
	}
}

func TestChaCha20StreamContinuity(t *testing.T) {
	a := MustChaCha20([]byte("x"))
	b := MustChaCha20([]byte("x"))
	one := make([]byte, 200)
	a.Fill(one)
	var parts []byte
	for len(parts) < 200 {
		chunk := make([]byte, 7)
		b.Fill(chunk)
		parts = append(parts, chunk...)
	}
	if !bytes.Equal(one, parts[:200]) {
		t.Fatal("chunked reads must match one big read")
	}
}

func TestChaCha20SeedTooLong(t *testing.T) {
	if _, err := NewChaCha20(make([]byte, 33)); err == nil {
		t.Fatal("expected error")
	}
}

// FIPS 202: SHAKE256(""), first 32 bytes.
func TestSHAKE256EmptyKAT(t *testing.T) {
	got := ShakeSum256(32, nil)
	want, _ := hex.DecodeString("46b9dd2b0ba88d13233b3feb743eeb243fcd52ea62b81b82b50c27646ed5762f")
	if !bytes.Equal(got, want) {
		t.Fatalf("SHAKE256(\"\") = %x, want %x", got, want)
	}
}

// SHAKE256("abc"), first 32 bytes (NIST example values).
func TestSHAKE256AbcKAT(t *testing.T) {
	got := ShakeSum256(32, []byte("abc"))
	want, _ := hex.DecodeString("483366601360a8771c6863080cc4114d8db44530f8f1e1ee4f94ea37e78b5739")
	if !bytes.Equal(got, want) {
		t.Fatalf("SHAKE256(abc) = %x, want %x", got, want)
	}
}

func TestSHAKE256LongInputCrossesRate(t *testing.T) {
	// Absorbing more than the 136-byte rate must not corrupt state;
	// compare incremental vs one-shot absorption.
	msg := bytes.Repeat([]byte{0xa3}, 500)
	s1 := NewSHAKE256()
	s1.Absorb(msg)
	o1 := make([]byte, 64)
	s1.Fill(o1)

	s2 := NewSHAKE256()
	for _, b := range msg {
		s2.Absorb([]byte{b})
	}
	o2 := make([]byte, 64)
	s2.Fill(o2)
	if !bytes.Equal(o1, o2) {
		t.Fatal("incremental absorb differs from bulk")
	}
}

func TestSHAKEAbsorbAfterSqueezePanics(t *testing.T) {
	s := NewSHAKE256Seeded([]byte("s"))
	s.Fill(make([]byte, 1))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s.Absorb([]byte("more"))
}

func TestSHAKESqueezeCrossesRate(t *testing.T) {
	s := NewSHAKE256Seeded([]byte("seed"))
	big := make([]byte, 1000)
	s.Fill(big)
	s2 := NewSHAKE256Seeded([]byte("seed"))
	var parts []byte
	for len(parts) < 1000 {
		chunk := make([]byte, 13)
		s2.Fill(chunk)
		parts = append(parts, chunk...)
	}
	if !bytes.Equal(big, parts[:1000]) {
		t.Fatal("chunked squeeze differs")
	}
}

func TestAESCTRDeterministic(t *testing.T) {
	a, err := NewAESCTR(make([]byte, 16))
	if err != nil {
		t.Fatal(err)
	}
	b, _ := NewAESCTR(make([]byte, 16))
	pa, pb := make([]byte, 300), make([]byte, 300)
	a.Fill(pa)
	b.Fill(pb)
	if !bytes.Equal(pa, pb) {
		t.Fatal("AES-CTR not deterministic")
	}
	if bytes.Equal(pa, make([]byte, 300)) {
		t.Fatal("AES-CTR produced zeros")
	}
}

func TestNewSourceNames(t *testing.T) {
	for _, name := range []string{"chacha20", "shake256", "aes-ctr"} {
		s, err := NewSource(name, []byte("seed"))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if s.Name() != name {
			t.Fatalf("Name() = %q, want %q", s.Name(), name)
		}
		p := make([]byte, 64)
		s.Fill(p)
	}
	if _, err := NewSource("bogus", nil); err == nil {
		t.Fatal("expected error for unknown source")
	}
}

func TestBitReaderCountsBits(t *testing.T) {
	r := NewBitReader(MustChaCha20([]byte("c")))
	for i := 0; i < 10; i++ {
		r.Bit()
	}
	if r.BitsRead != 10 {
		t.Fatalf("BitsRead = %d, want 10", r.BitsRead)
	}
	r.Uint64()
	if r.BitsRead != 74 {
		t.Fatalf("BitsRead = %d, want 74", r.BitsRead)
	}
}

func TestBitReaderBitOrderMatchesBytes(t *testing.T) {
	src := MustChaCha20([]byte("order"))
	raw := make([]byte, 16)
	src.Fill(raw)

	r := NewBitReader(MustChaCha20([]byte("order")))
	for i := 0; i < 64; i++ {
		want := (raw[i/8] >> uint(i%8)) & 1
		if got := r.Bit(); got != want {
			t.Fatalf("bit %d = %d, want %d", i, got, want)
		}
	}
}

func TestBitReaderWords(t *testing.T) {
	r := NewBitReader(MustChaCha20([]byte("w")))
	dst := make([]uint64, 4)
	r.Words(dst)
	if r.BitsRead != 256 {
		t.Fatalf("BitsRead = %d", r.BitsRead)
	}
	allZero := true
	for _, w := range dst {
		if w != 0 {
			allZero = false
		}
	}
	if allZero {
		t.Fatal("words all zero")
	}
}

// TestFillWordsMatchesUint64 pins the bulk path to the per-word reference:
// the same byte stream (including partial-tail discards at buffer edges
// and BitsRead accounting) must come out of FillWords regardless of the
// request size or the reader's alignment going in.
func TestFillWordsMatchesUint64(t *testing.T) {
	bulk := NewBitReader(MustChaCha20([]byte("fw")))
	ref := NewBitReader(MustChaCha20([]byte("fw")))

	sizes := []int{1, 3, 64, 65, 130, 7, 200, 63, 64, 1}
	for round, n := range sizes {
		got := make([]uint64, n)
		want := make([]uint64, n)
		bulk.FillWords(got)
		for i := range want {
			want[i] = ref.Uint64()
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("round %d word %d: FillWords %#x, Uint64 %#x", round, i, got[i], want[i])
			}
		}
		if bulk.BitsRead != ref.BitsRead {
			t.Fatalf("round %d: BitsRead %d vs %d", round, bulk.BitsRead, ref.BitsRead)
		}
		// Misalign both readers identically between rounds to cover the
		// re-alignment path (odd byte counts and dangling bits).
		var scratch [3]byte
		bulk.Bytes(scratch[:])
		ref.Bytes(scratch[:])
		bulk.Bit()
		ref.Bit()
	}
}

func TestBitReaderMonobitSanity(t *testing.T) {
	// Frequency test: roughly half the bits should be 1.
	for _, name := range []string{"chacha20", "shake256", "aes-ctr"} {
		src, _ := NewSource(name, []byte("monobit"))
		r := NewBitReader(src)
		ones := 0
		const n = 100000
		for i := 0; i < n; i++ {
			ones += int(r.Bit())
		}
		if ones < n/2-1000 || ones > n/2+1000 {
			t.Errorf("%s: %d ones of %d", name, ones, n)
		}
	}
}
