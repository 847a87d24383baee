package seckey

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/subtle"
	"encoding/binary"
	"errors"
	"fmt"

	"iotmpc/internal/field"
)

// Share-packet wire format (sharing phase of SSS over MiniCast):
//
//	byte 0..8L-1     ciphertext of L 8-byte little-endian share values
//	byte 8L..8L+3    truncated AES-CMAC tag (4 bytes, 802.15.4 MIC-32 style)
//
// Scalar packets (SealShare/OpenShare) are the L=1 layout; vector packets
// (SealVector/OpenVector) pack a whole shamir.ShareVector under one CTR
// keystream and ONE MIC, so an L-sensor reading costs a single tag and a
// single header instead of L of each.
//
// The nonce for CTR mode is derived from (round, sender, receiver, slot,
// vector length) so every sub-slot of every round keys a unique keystream
// without shipping a nonce on air — both endpoints know the TDMA schedule
// and the deployment's configured vector length. Because the MIC covers the
// nonce, a packet truncated or opened under the wrong vector length fails
// authentication instead of decrypting to garbage.

// TagSize is the truncated MIC length in bytes (MIC-32, as in 802.15.4
// security level 5 which pairs encryption with a 4-byte MIC).
const TagSize = 4

// SealedShareSize is the on-air size of an encrypted share value.
const SealedShareSize = 8 + TagSize

// MaxVectorElems bounds the element count of a sealed vector: the length is
// bound into the packet context as a uint16.
const MaxVectorElems = 1<<16 - 1

// SealedVectorSize is the on-air size of an encrypted share vector of l
// elements: the packed 8·l-byte payload plus one MIC for the whole vector.
func SealedVectorSize(l int) int { return 8*l + TagSize }

// Errors returned by packet sealing.
var (
	// ErrAuthFailed is returned when the MIC does not verify.
	ErrAuthFailed = errors.New("seckey: packet authentication failed")
	// ErrShortPacket is returned for truncated ciphertext.
	ErrShortPacket = errors.New("seckey: packet too short")
	// ErrBadVectorLen is returned for vector lengths outside
	// [0, MaxVectorElems] — a caller bug, not a wire-corruption condition.
	ErrBadVectorLen = errors.New("seckey: invalid vector length")
)

// PacketContext binds a sealed share to its position in the protocol so a
// ciphertext replayed in another slot or round fails authentication.
type PacketContext struct {
	Round    uint32
	Sender   uint16
	Receiver uint16
	Slot     uint32
	// VecLen is the element count of a sealed share vector. Scalar packets
	// leave it zero; SealVector/OpenVector set it themselves, which binds
	// the expected length into the nonce (and therefore the MIC).
	VecLen uint16
}

func (c PacketContext) nonce() [aes.BlockSize]byte {
	var n [aes.BlockSize]byte
	binary.LittleEndian.PutUint32(n[0:], c.Round)
	binary.LittleEndian.PutUint16(n[4:], c.Sender)
	binary.LittleEndian.PutUint16(n[6:], c.Receiver)
	binary.LittleEndian.PutUint32(n[8:], c.Slot)
	binary.LittleEndian.PutUint16(n[12:], c.VecLen)
	return n
}

// Sealer is one pairwise key expanded for sealing: the AES key schedule and
// the RFC 4493 CMAC subkeys K1/K2, computed once by NewSealer. It is
// read-only afterwards, so any number of goroutines may seal and open with
// one Sealer at once. Expanding a key costs several times as much as
// sealing a short packet with it, so callers that seal repeatedly on a link
// (a round's sharing phase, trial after trial) expand each pairwise key
// once and keep the Sealer.
type Sealer struct {
	block  cipher.Block
	k1, k2 [aes.BlockSize]byte
}

// NewSealer expands key for sealing and opening.
func NewSealer(key Key) *Sealer {
	block, err := aes.NewCipher(key[:])
	if err != nil {
		// Unreachable: a Key is always a valid AES-128 key.
		panic(fmt.Sprintf("seckey: expand key: %v", err))
	}
	s := &Sealer{block: block}
	s.k1, s.k2 = cmacSubkeys(block)
	return s
}

// scratch holds every block one seal or open hands to the cipher. A slice
// passed through the cipher.Block interface escapes to the heap, so keeping
// the blocks in one struct costs one allocation per call, not one per block.
type scratch struct {
	nonce [aes.BlockSize]byte // the packet nonce, MAC'd as the first block
	ctr   [aes.BlockSize]byte // the CTR counter block
	ks    [aes.BlockSize]byte // one block of keystream
	mac   [aes.BlockSize]byte // the CMAC chaining value, then the tag
}

// newScratch returns one call's scratch with the CTR counter starting at
// the nonce for ctx.
func newScratch(ctx PacketContext) *scratch {
	sc := &scratch{nonce: ctx.nonce()}
	sc.ctr = sc.nonce
	return sc
}

// nextKeystream encrypts the counter block into sc.ks and advances the
// counter as cipher.NewCTR does: a big-endian increment over all 128 bits.
func (s *Sealer) nextKeystream(sc *scratch) {
	s.block.Encrypt(sc.ks[:], sc.ctr[:])
	for i := aes.BlockSize - 1; i >= 0; i-- {
		sc.ctr[i]++
		if sc.ctr[i] != 0 {
			break
		}
	}
}

// packetMAC computes the CMAC of nonce‖ct into sc.mac. The nonce is exactly
// one block, so it is the first chaining step rather than bytes copied in
// front of ct.
func (s *Sealer) packetMAC(sc *scratch, ct []byte) {
	if len(ct) == 0 {
		s.cmacFinish(sc.mac[:], sc.nonce[:])
		return
	}
	s.block.Encrypt(sc.mac[:], sc.nonce[:]) // E(0 ⊕ nonce)
	s.cmacFinish(sc.mac[:], ct)
}

// seal encrypts values and appends one tag, binding ctx exactly as given.
func (s *Sealer) seal(ctx PacketContext, values []field.Element) []byte {
	out := make([]byte, SealedVectorSize(len(values)))
	ct := out[:8*len(values)]
	for i, v := range values {
		binary.LittleEndian.PutUint64(ct[8*i:], v.Uint64())
	}
	sc := newScratch(ctx)
	for rest := ct; len(rest) > 0; {
		s.nextKeystream(sc)
		rest = rest[subtle.XORBytes(rest, rest, sc.ks[:]):]
	}
	s.packetMAC(sc, ct)
	copy(out[len(ct):], sc.mac[:TagSize])
	return out
}

// open verifies and decrypts a packet of l values sealed under ctx. The
// caller has checked that sealed holds at least SealedVectorSize(l) bytes.
func (s *Sealer) open(ctx PacketContext, l int, sealed []byte) ([]field.Element, error) {
	ct := sealed[:8*l]
	sc := newScratch(ctx)
	s.packetMAC(sc, ct)
	if !tagEqual(sc.mac[:TagSize], sealed[len(ct):len(ct)+TagSize]) {
		return nil, ErrAuthFailed
	}
	values := make([]field.Element, l)
	for i := 0; i < l; i += aes.BlockSize / 8 {
		s.nextKeystream(sc)
		n := subtle.XORBytes(sc.ks[:], sc.ks[:], ct[8*i:])
		for j := 0; j < n/8; j++ {
			values[i+j] = field.New(binary.LittleEndian.Uint64(sc.ks[8*j:]))
		}
	}
	return values, nil
}

// SealVector encrypts and authenticates a whole share vector: one CTR
// keystream over the packed 8·L-byte payload and a single truncated CMAC
// tag for the vector. ctx.VecLen is overwritten with len(values), binding
// the length into the nonce and MIC.
func (s *Sealer) SealVector(ctx PacketContext, values []field.Element) ([]byte, error) {
	l := len(values)
	if l > MaxVectorElems {
		return nil, fmt.Errorf("%w: %d elements", ErrBadVectorLen, l)
	}
	ctx.VecLen = uint16(l)
	return s.seal(ctx, values), nil
}

// OpenVector verifies and decrypts a sealed share vector of exactly vecLen
// elements. A truncated packet returns ErrShortPacket; a tampered packet, or
// one sealed under a different length, slot, or round, returns ErrAuthFailed.
func (s *Sealer) OpenVector(ctx PacketContext, vecLen int, sealed []byte) ([]field.Element, error) {
	if vecLen < 0 || vecLen > MaxVectorElems {
		return nil, fmt.Errorf("%w: %d elements", ErrBadVectorLen, vecLen)
	}
	if len(sealed) < SealedVectorSize(vecLen) {
		return nil, fmt.Errorf("%w: %d bytes for %d elements", ErrShortPacket, len(sealed), vecLen)
	}
	ctx.VecLen = uint16(vecLen)
	return s.open(ctx, vecLen, sealed)
}

// SealShare encrypts and authenticates one share value under the pairwise
// key, bound to ctx.
func SealShare(key Key, ctx PacketContext, value field.Element) ([]byte, error) {
	return NewSealer(key).seal(ctx, []field.Element{value}), nil
}

// OpenShare verifies and decrypts a sealed share.
func OpenShare(key Key, ctx PacketContext, sealed []byte) (field.Element, error) {
	if len(sealed) < SealedShareSize {
		return 0, fmt.Errorf("%w: %d bytes", ErrShortPacket, len(sealed))
	}
	values, err := NewSealer(key).open(ctx, 1, sealed)
	if err != nil {
		return 0, err
	}
	return values[0], nil
}

// SealVector seals a share vector under key; see Sealer.SealVector. It
// expands the key on every call, so repeated sealing on one link should
// keep a Sealer instead.
func SealVector(key Key, ctx PacketContext, values []field.Element) ([]byte, error) {
	return NewSealer(key).SealVector(ctx, values)
}

// OpenVector opens a sealed share vector under key; see Sealer.OpenVector.
func OpenVector(key Key, ctx PacketContext, vecLen int, sealed []byte) ([]field.Element, error) {
	return NewSealer(key).OpenVector(ctx, vecLen, sealed)
}
