package falcon

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// TestDecodeSignatureRejectsNonCanonical: trailing payload bytes and
// non-zero padding bits must not decode, so every signature has exactly
// one encoding.
func TestDecodeSignatureRejectsNonCanonical(t *testing.T) {
	// One coefficient is 9 payload bits: one full byte and a second byte
	// with 7 padding bits.
	sig := &Signature{Salt: bytes.Repeat([]byte{7}, SaltLen), S1: []int16{-5}}
	enc := sig.Encode()
	if _, err := DecodeSignature(enc); err != nil {
		t.Fatalf("canonical encoding rejected: %v", err)
	}

	trailing := append(append([]byte(nil), enc...), 0)
	word := binary.BigEndian.Uint32(trailing[SaltLen:])
	binary.BigEndian.PutUint32(trailing[SaltLen:], word+1) // payload length + 1
	if _, err := DecodeSignature(trailing); err == nil {
		t.Fatal("payload with a trailing byte decoded")
	}

	for bit := 0; bit < 7; bit++ {
		padded := append([]byte(nil), enc...)
		padded[len(padded)-1] |= 1 << bit
		if _, err := DecodeSignature(padded); err == nil {
			t.Fatalf("payload with padding bit %d set decoded", bit)
		}
	}
}

// The decoders face untrusted bytes: whatever decodes must re-encode
// to exactly the input, so no two encodings share a meaning.

func FuzzDecodeSignature(f *testing.F) {
	f.Add((&Signature{Salt: make([]byte, SaltLen), S1: []int16{0, 1, -1, 127, -128, 300}}).Encode())
	f.Add(make([]byte, SaltLen+4))
	f.Fuzz(func(t *testing.T, data []byte) {
		sig, err := DecodeSignature(data)
		if err != nil {
			return
		}
		if enc := sig.Encode(); !bytes.Equal(enc, data) {
			t.Fatalf("decode/encode round trip changed the bytes:\n in  %x\n out %x", data, enc)
		}
	})
}

func FuzzDecodePublic(f *testing.F) {
	h := make([]uint16, 256)
	for i := range h {
		h[i] = uint16(i * 47 % Q)
	}
	f.Add((&PublicKey{Params: mustParams(256), H: h}).EncodePublic())
	f.Add([]byte{9, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		pk, err := DecodePublic(data)
		if err != nil {
			return
		}
		if enc := pk.EncodePublic(); !bytes.Equal(enc, data) {
			t.Fatalf("decode/encode round trip changed the bytes:\n in  %x\n out %x", data, enc)
		}
	})
}

func mustParams(n int) Params {
	p, err := ParamsFor(n)
	if err != nil {
		panic(err)
	}
	return p
}
