package falcon

import (
	"encoding/binary"
	"fmt"
)

// Signature and key serialisation.  The signature payload uses the spec's
// Golomb-Rice style compression: per coefficient a sign bit, the 7 low
// magnitude bits, then the high bits in unary (k zeros and a terminating
// one).

// bitWriter packs bits MSB-first.
type bitWriter struct {
	buf []byte
	n   uint // bits written
}

func (w *bitWriter) writeBit(b uint) {
	if w.n%8 == 0 {
		w.buf = append(w.buf, 0)
	}
	if b != 0 {
		w.buf[len(w.buf)-1] |= 0x80 >> (w.n % 8)
	}
	w.n++
}

func (w *bitWriter) writeBits(v uint, width uint) {
	for i := int(width) - 1; i >= 0; i-- {
		w.writeBit((v >> uint(i)) & 1)
	}
}

type bitReader struct {
	buf []byte
	n   uint
}

func (r *bitReader) readBit() (uint, error) {
	if r.n >= uint(len(r.buf))*8 {
		return 0, fmt.Errorf("falcon: bitstream exhausted")
	}
	b := uint(r.buf[r.n/8]>>(7-r.n%8)) & 1
	r.n++
	return b, nil
}

func (r *bitReader) readBits(width uint) (uint, error) {
	var v uint
	for i := uint(0); i < width; i++ {
		b, err := r.readBit()
		if err != nil {
			return 0, err
		}
		v = v<<1 | b
	}
	return v, nil
}

// compressCoeffs encodes signed coefficients.
func compressCoeffs(cs []int16) []byte {
	var w bitWriter
	for _, c := range cs {
		v := int(c)
		sign := uint(0)
		if v < 0 {
			sign = 1
			v = -v
		}
		w.writeBit(sign)
		w.writeBits(uint(v)&0x7f, 7)
		for k := v >> 7; k > 0; k-- {
			w.writeBit(0)
		}
		w.writeBit(1)
	}
	return w.buf
}

// decompressCoeffs decodes n signed coefficients, which must fill data
// exactly (see the canonical-encoding check at the end).
func decompressCoeffs(data []byte, n int) ([]int16, error) {
	r := bitReader{buf: data}
	out := make([]int16, n)
	for i := 0; i < n; i++ {
		sign, err := r.readBit()
		if err != nil {
			return nil, err
		}
		low, err := r.readBits(7)
		if err != nil {
			return nil, err
		}
		high := uint(0)
		for {
			b, err := r.readBit()
			if err != nil {
				return nil, err
			}
			if b == 1 {
				break
			}
			high++
			if high > 255 {
				return nil, fmt.Errorf("falcon: unary run too long")
			}
		}
		v := int(high<<7 | low)
		if sign == 1 {
			if v == 0 {
				return nil, fmt.Errorf("falcon: negative zero encoding")
			}
			v = -v
		}
		out[i] = int16(v)
	}
	// Only the canonical encoding decodes: the payload ends with the byte
	// holding the last coefficient's final bit, and that byte's padding
	// bits are zero.  Otherwise one signature would have many encodings.
	if used := (r.n + 7) / 8; used != uint(len(data)) {
		return nil, fmt.Errorf("falcon: %d unconsumed payload bytes", uint(len(data))-used)
	}
	if pad := r.n % 8; pad != 0 && data[len(data)-1]&(0xff>>pad) != 0 {
		return nil, fmt.Errorf("falcon: non-zero padding bits")
	}
	return out, nil
}

// Encode serialises a signature: salt ‖ uint16 payload length ‖ payload.
func (s *Signature) Encode() []byte {
	payload := compressCoeffs(s.S1)
	out := make([]byte, 0, SaltLen+2+len(payload)+2)
	out = append(out, s.Salt...)
	var lenb [4]byte
	binary.BigEndian.PutUint32(lenb[:], uint32(len(s.S1))<<16|uint32(len(payload)))
	out = append(out, lenb[:]...)
	return append(out, payload...)
}

// DecodeSignature parses Encode's output.
func DecodeSignature(data []byte) (*Signature, error) {
	if len(data) < SaltLen+4 {
		return nil, ErrBadLength
	}
	salt := append([]byte(nil), data[:SaltLen]...)
	word := binary.BigEndian.Uint32(data[SaltLen : SaltLen+4])
	n := int(word >> 16)
	plen := int(word & 0xffff)
	rest := data[SaltLen+4:]
	if len(rest) != plen || n == 0 || n > 1024 {
		return nil, ErrBadLength
	}
	s1, err := decompressCoeffs(rest, n)
	if err != nil {
		return nil, err
	}
	return &Signature{Salt: salt, S1: s1}, nil
}

// EncodePublic serialises a public key as N big-endian uint16s after a
// one-byte log₂(N) header.
func (pk *PublicKey) EncodePublic() []byte {
	out := make([]byte, 1+2*len(pk.H))
	logn := 0
	for 1<<logn < pk.Params.N {
		logn++
	}
	out[0] = byte(logn)
	for i, v := range pk.H {
		binary.BigEndian.PutUint16(out[1+2*i:], v)
	}
	return out
}

// DecodePublic parses EncodePublic output.
func DecodePublic(data []byte) (*PublicKey, error) {
	if len(data) < 1 {
		return nil, ErrBadLength
	}
	n := 1 << data[0]
	params, err := ParamsFor(n)
	if err != nil {
		return nil, err
	}
	if len(data) != 1+2*n {
		return nil, ErrBadLength
	}
	h := make([]uint16, n)
	for i := range h {
		h[i] = binary.BigEndian.Uint16(data[1+2*i:])
		if h[i] >= Q {
			return nil, fmt.Errorf("falcon: public coefficient %d out of range", i)
		}
	}
	return &PublicKey{Params: params, H: h}, nil
}
