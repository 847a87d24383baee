package seckey

import (
	"encoding/hex"
	"testing"

	"iotmpc/internal/field"
)

// Known-answer vectors pin the share-packet wire format byte for byte: the
// round-trip tests are self-consistent, and round results never expose
// ciphertext, so these are the only tests that would notice a change to the
// nonce layout, the CTR counter semantics or the CMAC chaining. The lengths
// cross CTR and CMAC block boundaries: ciphertext of 0, 8, 16, 24 and 112
// bytes, so nonce‖ct is one whole block, 1½, 2, 2½ and 8 blocks.

// katKey is PairKey(3, 11) under master seed 0x4B41; its bytes are pinned
// too, so a change to key derivation fails here rather than as a vector
// mismatch.
const katKeyHex = "b7b0ea3d5d97dc2ffec1c467c2bac621"

var katContext = PacketContext{Round: 0x01020304, Sender: 3, Receiver: 11, Slot: 0x2A}

func katKey(t *testing.T) Key {
	t.Helper()
	key, err := NewStore(MasterFromSeed(0x4B41)).PairKey(3, 11)
	if err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(key[:]); got != katKeyHex {
		t.Fatalf("PairKey(3, 11) = %s, want %s", got, katKeyHex)
	}
	return key
}

// katValues is the L-element reading the vector vectors seal.
func katValues(l int) []field.Element {
	values := make([]field.Element, l)
	for i := range values {
		values[i] = field.New(uint64(i+1) * 0x9e3779b97f4a7c15)
	}
	return values
}

func TestSealVectorKnownAnswers(t *testing.T) {
	key := katKey(t)
	tests := []struct {
		l    int
		want string
	}{
		{0, "43764305"},
		{1, "47fd78bc8426645dd865b6a5"},
		{2, "1ca8672538ba1017333e7f01241bae8354af80c0"},
		{3, "9b56bc146180df1d5ebadc79a9737280e8c0493fe905f73b780d23bb"},
		{14, "97d78fed323cdc0828b21611bc34c849ec14ae643247460decf68b53cfda562a" +
			"564870b441022ee4afe5223c9ced0142d28ca2ebfc4c30b933af1be7e8477dbd" +
			"6d6d50aa1f7b872f319e4723d10f49e01da47520c609e8adca5aa176d078aca6" +
			"8db228ef07bb6b6642195874f73a48928fab4317"},
	}
	for _, tt := range tests {
		values := katValues(tt.l)
		sealed, err := SealVector(key, katContext, values)
		if err != nil {
			t.Fatalf("L=%d: %v", tt.l, err)
		}
		if got := hex.EncodeToString(sealed); got != tt.want {
			t.Errorf("SealVector L=%d = %s, want %s", tt.l, got, tt.want)
		}
		want, _ := hex.DecodeString(tt.want)
		opened, err := OpenVector(key, katContext, tt.l, want)
		if err != nil {
			t.Fatalf("OpenVector L=%d: %v", tt.l, err)
		}
		for i := range values {
			if opened[i] != values[i] {
				t.Errorf("OpenVector L=%d value %d = %v, want %v", tt.l, i, opened[i], values[i])
			}
		}
	}
}

func TestSealShareKnownAnswer(t *testing.T) {
	key := katKey(t)
	const want = "daf85100508ed9ad92b3b07c"
	value := field.New(0x0123456789abcdef)
	sealed, err := SealShare(key, katContext, value)
	if err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(sealed); got != want {
		t.Errorf("SealShare = %s, want %s", got, want)
	}
	packet, _ := hex.DecodeString(want)
	opened, err := OpenShare(key, katContext, packet)
	if err != nil {
		t.Fatal(err)
	}
	if opened != value {
		t.Errorf("OpenShare = %v, want %v", opened, value)
	}
}
