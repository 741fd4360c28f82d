package tla

// The engine's visited set deduplicates states on 64-bit fingerprints of
// their canonical encodings, as TLC does: storing 8 bytes per state instead
// of the full encoding keeps the visited set small and its probes cheap.
// The price is a vanishing probability of a hash collision silently merging
// two distinct states; Options.CollisionFree, at any worker count, buys
// back exactness with the same table, which then also keeps each
// state's encoding and compares it on every fingerprint hit, so colliding
// states chain to separate slots (TLC's -fpmem / collision-probability
// trade-off, resolved the safe way).
//
// The fingerprint function consumes bytes, not strings: states are hashed
// straight from their AppendBinary encoding with no Key() string ever
// built (see binary.go).

// fnv1a64 is the FNV-1a hash, the checker's fingerprint function.
func fnv1a64(b []byte) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(b); i++ {
		h ^= uint64(b[i])
		h *= prime64
	}
	return h
}

// fingerprint is the active fingerprint function. It is a variable only so
// tests can substitute a deliberately weak hash and force collisions.
var fingerprint = fnv1a64

// FingerprintBytes hashes b with the checker's fingerprint function — the
// same FNV-1a the visited set and checkpoint manifests use. Exported so
// callers composing identities on top of the checker (checkd's verdict
// cache keys spec name + config alongside Options.Fingerprint) hash with
// the machinery already trusted for state identity.
func FingerprintBytes(b []byte) uint64 { return fnv1a64(b) }
