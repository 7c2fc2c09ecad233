package falcon

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"testing"
)

// goldenSignatures pins the signatures one signer produces over 64 fixed
// messages, for a fixed key (testKey) and signer seed: the SHA-256 over
// every signature's salt‖S1 (S1 as big-endian 16-bit words, in message
// order) and the signer's Attempts count afterwards.  Any change to the
// signing data path — FFT, ffSampling, hashToPoint, SamplerZ or the
// randomness each consumes — that moves a single sampled value shows up
// here.
var goldenSignatures = []struct {
	n        int
	kind     BaseSamplerKind
	digest   string
	attempts uint64
}{
	{256, BaseBitsliced, "94bd3a2bc556397c584c11453cc67011542bf8f8234295e3a6c073fdf1c1a89d", 64},
	{256, BaseCDT, "ab689abc87cbd4a4eca2b61f322dd9a37ba3d5d181ff49a7fc47f513ab08720f", 65},
	{256, BaseConvolve, "bcfe5260f6761112a5de3fa361578e07fdeaa18d34b6d60908d549b7cc515d96", 64},
	{512, BaseBitsliced, "09e15b63b2f341a6b09f4ed1d6563d50271ad7043d25d5c4ea8a2280f432f128", 64},
	{512, BaseCDT, "2a9508c4b00b6d878fc199653519b2f475afb597b30013dca3280280fd4dd1dc", 64},
	{512, BaseConvolve, "e4f2caf9c8aaefe88064573dae6ace7ca794e757e35ccac9415ea25fae57d1b7", 64},
}

const goldenMessages = 64

func goldenDigest(t *testing.T, n int, kind BaseSamplerKind) (string, uint64) {
	t.Helper()
	sk := testKey(t, n)
	signer, err := NewSignerWithKind(sk, kind, []byte("golden-signer"))
	if err != nil {
		t.Fatal(err)
	}
	pk := sk.Public()
	h := sha256.New()
	var word [2]byte
	for i := 0; i < goldenMessages; i++ {
		msg := []byte(fmt.Sprintf("golden message %d", i))
		sig, err := signer.Sign(msg)
		if err != nil {
			t.Fatal(err)
		}
		if err := pk.Verify(msg, sig); err != nil {
			t.Fatalf("message %d: %v", i, err)
		}
		h.Write(sig.Salt)
		for _, v := range sig.S1 {
			binary.BigEndian.PutUint16(word[:], uint16(v))
			h.Write(word[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil)), signer.Attempts
}

func TestGoldenSignatures(t *testing.T) {
	if testing.Short() {
		t.Skip("signs 384 messages, including keygen at N=512")
	}
	for _, g := range goldenSignatures {
		g := g
		t.Run(fmt.Sprintf("N%d/%v", g.n, g.kind), func(t *testing.T) {
			digest, attempts := goldenDigest(t, g.n, g.kind)
			if digest != g.digest || attempts != g.attempts {
				t.Fatalf("signatures moved: digest %s attempts %d, want %s attempts %d",
					digest, attempts, g.digest, g.attempts)
			}
		})
	}
}
