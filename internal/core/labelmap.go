package core

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
)

// LabelMap is the direct-inference mitigation of §III-A / §IV-A: "to
// prevent inference, the label should be mapped to a random number first".
//
// The concrete instantiation is a keyed pseudorandom permutation of the
// class indices, shared by all clients (who derive it from a secret key)
// and unknown to the server. Training semantics are exactly preserved —
// permuting output units permutes nothing but their order — while the
// server can no longer tell which output unit corresponds to which real
// class. Clients invert the permutation on predictions.
type LabelMap struct {
	perm []int
	inv  []int
}

// ErrLabelRange reports a class index outside the map's domain.
var ErrLabelRange = errors.New("core: label out of range")

// NewLabelMap derives a permutation of [0, classes) from the secret key.
// The derivation is deterministic: every client holding the key builds the
// same map.
func NewLabelMap(classes int, key []byte) (*LabelMap, error) {
	if classes <= 0 {
		return nil, fmt.Errorf("core: classes must be positive, got %d", classes)
	}
	if len(key) == 0 {
		return nil, errors.New("core: empty label-map key")
	}
	// Derive a seed from the key with HMAC-SHA256, then shuffle.
	mac := hmac.New(sha256.New, key)
	mac.Write([]byte("cryptonn-label-permutation"))
	sum := mac.Sum(nil)
	seed := int64(binary.BigEndian.Uint64(sum[:8]))
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(classes)
	inv := make([]int, classes)
	for i, p := range perm {
		inv[p] = i
	}
	return &LabelMap{perm: perm, inv: inv}, nil
}

// Classes returns the permutation's domain size.
func (m *LabelMap) Classes() int { return len(m.perm) }

// Apply maps a true class index to its masked index (client side, before
// encryption).
func (m *LabelMap) Apply(label int) (int, error) {
	if label < 0 || label >= len(m.perm) {
		return 0, fmt.Errorf("%w: %d of %d", ErrLabelRange, label, len(m.perm))
	}
	return m.perm[label], nil
}

// Invert maps a masked prediction back to the true class (client side,
// after prediction).
func (m *LabelMap) Invert(masked int) (int, error) {
	if masked < 0 || masked >= len(m.inv) {
		return 0, fmt.Errorf("%w: %d of %d", ErrLabelRange, masked, len(m.inv))
	}
	return m.inv[masked], nil
}

// InvertAll maps a masked prediction slice back.
func (m *LabelMap) InvertAll(masked []int) ([]int, error) {
	out := make([]int, len(masked))
	for i, l := range masked {
		v, err := m.Invert(l)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}
