#include "crypto/wots.hpp"

#include <cstring>

namespace rpkic::wots {

namespace {

void putBe32(std::uint8_t* out, std::uint32_t v) {
    out[0] = static_cast<std::uint8_t>(v >> 24);
    out[1] = static_cast<std::uint8_t>(v >> 16);
    out[2] = static_cast<std::uint8_t>(v >> 8);
    out[3] = static_cast<std::uint8_t>(v);
}

// PRF for secret chain heads: SHA-256("wots-sk" || seed || leaf || chain),
// 47 bytes, so one padded block.
Digest prfSecret(const Digest& secretSeed, std::uint32_t leafIndex, std::uint32_t chain) {
    std::array<std::uint8_t, 64> block{};
    std::memcpy(block.data(), "wots-sk", 7);
    std::memcpy(block.data() + 7, secretSeed.bytes.data(), 32);
    putBe32(block.data() + 39, leafIndex);
    putBe32(block.data() + 43, chain);
    return sha256OneBlock(block, 47);
}

// Applies chain steps from position `from` (exclusive of the value's own
// position) for `steps` iterations.
Digest applyChain(const Digest& publicSeed, std::uint32_t leafIndex, std::uint32_t chain,
                  std::uint32_t from, std::uint32_t steps, Digest value) {
    for (std::uint32_t i = 0; i < steps; ++i) {
        value = chainStep(publicSeed, leafIndex, chain, from + i, value);
    }
    return value;
}

Digest compress(const std::array<Digest, kChains>& tails) {
    Sha256 h;
    h.update("wots-pk");
    for (const auto& t : tails) h.update(ByteView(t.bytes.data(), t.bytes.size()));
    return h.finish();
}

}  // namespace

// The input is laid out to fit a single SHA-256 block (51 bytes + padding),
// halving the per-step cost: domain byte, 12-byte public-seed prefix, leaf
// index, chain, position, value.
Digest chainStep(const Digest& publicSeed, std::uint32_t leafIndex, std::uint32_t chain,
                 std::uint32_t position, const Digest& value) {
    std::array<std::uint8_t, 64> block{};
    block[0] = 0xF1;
    std::memcpy(block.data() + 1, publicSeed.bytes.data(), 12);
    putBe32(block.data() + 13, leafIndex);
    block[17] = static_cast<std::uint8_t>(chain);     // kChains = 67 < 256
    block[18] = static_cast<std::uint8_t>(position);  // <= 15
    std::memcpy(block.data() + 19, value.bytes.data(), 32);
    return sha256OneBlock(block, 51);
}

std::array<std::uint8_t, kChains> messageDigits(const Digest& messageDigest) {
    std::array<std::uint8_t, kChains> digits{};
    for (int i = 0; i < 32; ++i) {
        digits[2 * i] = messageDigest.bytes[i] >> 4;
        digits[2 * i + 1] = messageDigest.bytes[i] & 0x0f;
    }
    // Checksum: sum over message digits of (w-1 - digit), base-16 encoded.
    std::uint32_t checksum = 0;
    for (int i = 0; i < kMsgChains; ++i) checksum += kChainLen - digits[i];
    for (int i = 0; i < kChecksumChains; ++i) {
        digits[kMsgChains + i] =
            static_cast<std::uint8_t>((checksum >> (4 * (kChecksumChains - 1 - i))) & 0x0f);
    }
    return digits;
}

std::array<Digest, kChains> deriveSecretChains(const Digest& secretSeed, std::uint32_t leafIndex) {
    std::array<Digest, kChains> sk;
    for (int c = 0; c < kChains; ++c) sk[c] = prfSecret(secretSeed, leafIndex, c);
    return sk;
}

Digest derivePublicKey(const Digest& secretSeed, const Digest& publicSeed,
                       std::uint32_t leafIndex) {
    const auto sk = deriveSecretChains(secretSeed, leafIndex);
    std::array<Digest, kChains> tails;
    for (int c = 0; c < kChains; ++c) {
        tails[c] = applyChain(publicSeed, leafIndex, c, 0, kChainLen, sk[c]);
    }
    return compress(tails);
}

Signature sign(const Digest& secretSeed, const Digest& publicSeed, std::uint32_t leafIndex,
               const Digest& messageDigest) {
    const auto sk = deriveSecretChains(secretSeed, leafIndex);
    const auto digits = messageDigits(messageDigest);
    Signature sig;
    for (int c = 0; c < kChains; ++c) {
        sig[c] = applyChain(publicSeed, leafIndex, c, 0, digits[c], sk[c]);
    }
    return sig;
}

Digest publicKeyFromSignature(const Digest& publicSeed, std::uint32_t leafIndex,
                              const Digest& messageDigest, const Signature& sig) {
    const auto digits = messageDigits(messageDigest);
    std::array<Digest, kChains> tails;
    for (int c = 0; c < kChains; ++c) {
        tails[c] = applyChain(publicSeed, leafIndex, c, digits[c],
                              kChainLen - digits[c], sig[c]);
    }
    return compress(tails);
}

}  // namespace rpkic::wots
