package falcon

import (
	"bytes"
	"fmt"
	"testing"
)

// TestSignAllocations pins the allocation-free signing path: one Sign
// allocates the returned Signature (struct, salt, S1) and nothing else.
func TestSignAllocations(t *testing.T) {
	if testing.Short() {
		t.Skip("keygen at N=512")
	}
	signer, err := NewSignerWithKind(testKey(t, 512), BaseBitsliced, []byte("allocs"))
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("allocation budget")
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := signer.Sign(msg); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 4 {
		t.Fatalf("Sign allocated %v times per signature, want ≤ 4", allocs)
	}
}

// TestSignResultDoesNotAliasScratch: a returned signature must survive
// later Sign calls on the same signer, which reuse its scratch arena.
func TestSignResultDoesNotAliasScratch(t *testing.T) {
	sk := testKey(t, 256)
	signer, err := NewSignerWithKind(sk, BaseBitsliced, []byte("alias"))
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("first message")
	first, err := signer.Sign(msg)
	if err != nil {
		t.Fatal(err)
	}
	enc := first.Encode()
	if _, err := signer.Sign([]byte("second message")); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Encode(), enc) {
		t.Fatal("a later Sign rewrote an earlier signature")
	}
	if err := sk.Public().Verify(msg, first); err != nil {
		t.Fatalf("earlier signature no longer verifies: %v", err)
	}
}

func BenchmarkSign(b *testing.B) {
	for _, n := range []int{256, 512} {
		b.Run(fmt.Sprintf("N%d", n), func(b *testing.B) {
			sk, err := Keygen(n, []byte("falcon-test-seed"))
			if err != nil {
				b.Fatal(err)
			}
			signer, err := NewSignerWithKind(sk, BaseBitsliced, []byte("bench"))
			if err != nil {
				b.Fatal(err)
			}
			msg := []byte("benchmark message")
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := signer.Sign(msg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
