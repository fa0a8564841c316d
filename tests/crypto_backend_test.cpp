// Differential test of the two SHA-256 compression backends: the portable
// rounds and the x86 SHA-NI instructions must agree on every block, and the
// signature schemes built on them must produce the same keys and
// signatures whichever backend runs. On a CPU without SHA-NI only the
// portable backend exists and these tests skip.
#include "crypto/sha256_backend.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstring>

#include "crypto/wots.hpp"
#include "crypto/xmss.hpp"
#include "util/rng.hpp"

namespace rpkic {
namespace {

using sha256_backend::CompressFn;

#define RC_REQUIRE_SHANI()                                                          \
    do {                                                                            \
        if (!sha256_backend::shaNiAvailable()) {                                    \
            GTEST_SKIP() << "this CPU has no SHA-NI; only the portable backend runs"; \
        }                                                                           \
    } while (0)

#if RC_SHA256_HAVE_SHANI
constexpr CompressFn kShaNi = sha256_backend::compressShaNi;
#else
// Never called: RC_REQUIRE_SHANI skips first on builds without the backend.
constexpr CompressFn kShaNi = sha256_backend::compressPortable;
#endif
constexpr CompressFn kPortable = sha256_backend::compressPortable;

// Makes every Sha256 in scope run `fn`, restoring the previous backend on
// exit.
class ScopedBackend {
public:
    explicit ScopedBackend(CompressFn fn) : previous_(sha256_backend::exchangeCompress(fn)) {}
    ~ScopedBackend() { sha256_backend::exchangeCompress(previous_); }
    ScopedBackend(const ScopedBackend&) = delete;
    ScopedBackend& operator=(const ScopedBackend&) = delete;

private:
    CompressFn previous_;
};

Digest digestOfBytes(const Bytes& msg, CompressFn fn) {
    const ScopedBackend scope(fn);
    return sha256(ByteView(msg.data(), msg.size()));
}

TEST(Sha256Backend, ShaNiIsSelectedWhenTheCpuHasIt) {
    RC_REQUIRE_SHANI();
    sha256("select the backend");
    const CompressFn active = sha256_backend::exchangeCompress(kPortable);
    sha256_backend::exchangeCompress(active);
    EXPECT_EQ(active, kShaNi);
}

TEST(Sha256Backend, CompressAgreesOnSeededRandomBlocks) {
    RC_REQUIRE_SHANI();
    Rng rng(20140817);
    for (int c = 0; c < 1000; ++c) {
        const std::size_t n = static_cast<std::size_t>(rng.nextInRange(1, 9));
        Bytes blocks(64 * n);
        for (auto& b : blocks) b = static_cast<std::uint8_t>(rng.nextU64());
        std::uint32_t portable[8];
        for (auto& w : portable) w = static_cast<std::uint32_t>(rng.nextU64());
        std::uint32_t shaNi[8];
        std::memcpy(shaNi, portable, sizeof shaNi);

        kPortable(portable, blocks.data(), n);
        kShaNi(shaNi, blocks.data(), n);
        ASSERT_EQ(0, std::memcmp(portable, shaNi, sizeof shaNi)) << "case " << c << ", " << n
                                                                  << " blocks";

        // Whole digests too, at a length that lands anywhere in a block.
        blocks.resize(static_cast<std::size_t>(rng.nextBelow(blocks.size() + 1)));
        ASSERT_EQ(digestOfBytes(blocks, kPortable), digestOfBytes(blocks, kShaNi))
            << "case " << c << ", " << blocks.size() << " bytes";
    }
}

TEST(Sha256Backend, WotsPublicKeysAgree) {
    RC_REQUIRE_SHANI();
    for (std::uint32_t leaf = 0; leaf < 8; ++leaf) {
        const Digest secretSeed = sha256("backend secret " + std::to_string(leaf));
        const Digest publicSeed = sha256("backend public " + std::to_string(leaf));
        Digest keys[2];
        int i = 0;
        for (const CompressFn fn : {kPortable, kShaNi}) {
            const ScopedBackend scope(fn);
            keys[i++] = wots::derivePublicKey(secretSeed, publicSeed, leaf);
        }
        EXPECT_EQ(keys[0], keys[1]) << "leaf " << leaf;
    }
}

TEST(Sha256Backend, XmssSignaturesCrossVerify) {
    RC_REQUIRE_SHANI();
    const std::string msg = "manifest body signed under one backend";
    for (const std::uint64_t seed : {1u, 7u, 42u}) {
        std::array<Bytes, 2> sigs;
        std::array<PublicKey, 2> pubs;
        int i = 0;
        for (const CompressFn fn : {kPortable, kShaNi}) {
            const ScopedBackend scope(fn);
            Signer signer = Signer::generate(seed, 3);
            pubs[i] = signer.publicKey();
            sigs[i] = signer.sign(msg);
            ++i;
        }
        EXPECT_TRUE(pubs[0] == pubs[1]) << "seed " << seed;
        EXPECT_EQ(sigs[0], sigs[1]) << "seed " << seed;

        // Each backend verifies the other's signature, and rejects it under
        // a different message.
        const ByteView fromShaNi(sigs[1].data(), sigs[1].size());
        const ByteView fromPortable(sigs[0].data(), sigs[0].size());
        {
            const ScopedBackend scope(kPortable);
            EXPECT_TRUE(verify(pubs[1], msg, fromShaNi));
            EXPECT_FALSE(verify(pubs[1], msg + "!", fromShaNi));
        }
        {
            const ScopedBackend scope(kShaNi);
            EXPECT_TRUE(verify(pubs[0], msg, fromPortable));
            EXPECT_FALSE(verify(pubs[0], msg + "!", fromPortable));
        }
    }
}

}  // namespace
}  // namespace rpkic
