// Winternitz one-time signatures (WOTS) over SHA-256.
//
// One WOTS keypair signs exactly one message; xmss.hpp aggregates 2^h of
// them under a Merkle root to obtain a bounded-use many-time scheme. We use
// the textbook construction with Winternitz parameter w = 16 (4 bits per
// chain): 64 message chains + 3 checksum chains = 67 chains of length 15.
//
// Chain steps are domain-separated by (public seed, chain index, position)
// so that chains from different keys or positions can never be spliced.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "crypto/sha256.hpp"

namespace rpkic::wots {

inline constexpr int kWinternitz = 16;     // w: values per digit
inline constexpr int kChainLen = 15;       // w - 1 steps from sk to pk
inline constexpr int kMsgChains = 64;      // 256 bits / 4 bits per digit
inline constexpr int kChecksumChains = 3;  // ceil(log_16(64 * 15)) = 3
inline constexpr int kChains = kMsgChains + kChecksumChains;

/// A WOTS signature: one intermediate chain value per chain.
using Signature = std::array<Digest, kChains>;

/// Derives the secret chain heads for the one-time key at `leafIndex`
/// from a 32-byte secret seed.
std::array<Digest, kChains> deriveSecretChains(const Digest& secretSeed, std::uint32_t leafIndex);

/// Compressed public key (hash of all chain tails) for the given leaf.
Digest derivePublicKey(const Digest& secretSeed, const Digest& publicSeed, std::uint32_t leafIndex);

/// Signs a 32-byte message digest with the one-time key at `leafIndex`.
Signature sign(const Digest& secretSeed, const Digest& publicSeed, std::uint32_t leafIndex,
               const Digest& messageDigest);

/// Recomputes the compressed public key implied by `sig` for
/// `messageDigest`. Verification succeeds iff the result equals the leaf's
/// public key.
Digest publicKeyFromSignature(const Digest& publicSeed, std::uint32_t leafIndex,
                              const Digest& messageDigest, const Signature& sig);

/// One chain step, domain separated by position so partial chains cannot
/// be replayed at a different height. Exposed for benchmarks.
Digest chainStep(const Digest& publicSeed, std::uint32_t leafIndex, std::uint32_t chain,
                 std::uint32_t position, const Digest& value);

/// Splits a digest into base-16 digits followed by the checksum digits.
/// Exposed for tests.
std::array<std::uint8_t, kChains> messageDigits(const Digest& messageDigest);

}  // namespace rpkic::wots
