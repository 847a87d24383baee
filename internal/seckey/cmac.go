package seckey

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/subtle"
)

// AES-CMAC (RFC 4493): message authentication built solely on the AES block
// cipher, matching what a constrained node with an AES peripheral would use
// instead of HMAC-SHA256.

// cmacSubkeys derives the two CMAC subkeys K1, K2 from the block cipher.
func cmacSubkeys(b cipher.Block) (k1, k2 [aes.BlockSize]byte) {
	var l [aes.BlockSize]byte
	b.Encrypt(l[:], l[:])
	k1 = dbl(l)
	k2 = dbl(k1)
	return k1, k2
}

// dbl doubles a value in GF(2^128) with the CMAC reduction constant 0x87.
func dbl(in [aes.BlockSize]byte) [aes.BlockSize]byte {
	var out [aes.BlockSize]byte
	var carry byte
	for i := aes.BlockSize - 1; i >= 0; i-- {
		out[i] = in[i]<<1 | carry
		carry = in[i] >> 7
	}
	if carry != 0 {
		out[aes.BlockSize-1] ^= 0x87
	}
	return out
}

// cmacFinish completes an AES-CMAC and leaves the full 16-byte tag in x.
// x holds the CBC chaining value after the message's earlier whole blocks
// (all zero when msg is the whole message) and msg is the rest, which must
// be non-empty unless nothing came before it. Chaining from x is what lets
// a caller feed a leading block (the packet nonce) without concatenating it
// to msg.
func (s *Sealer) cmacFinish(x, msg []byte) {
	n := len(msg) / aes.BlockSize
	if n > 0 && len(msg)%aes.BlockSize == 0 {
		n-- // a whole last block is masked with K1 below, not chained here
	}
	for i := 0; i < n; i++ {
		subtle.XORBytes(x, x, msg[i*aes.BlockSize:(i+1)*aes.BlockSize])
		s.block.Encrypt(x, x)
	}
	last := msg[n*aes.BlockSize:]
	subtle.XORBytes(x, x, last)
	if len(last) == aes.BlockSize {
		subtle.XORBytes(x, x, s.k1[:])
	} else {
		x[len(last)] ^= 0x80 // 10* padding
		subtle.XORBytes(x, x, s.k2[:])
	}
	s.block.Encrypt(x, x)
}

// tagEqual compares MAC tags in constant time.
func tagEqual(a, b []byte) bool {
	return subtle.ConstantTimeCompare(a, b) == 1
}
