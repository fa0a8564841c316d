// Relying-party persistence: the serialized cache restores the exact
// state, and — the property that matters — transition detection works
// ACROSS the save/load boundary: a unilateral revocation between two
// process lifetimes is still caught.
#include <gtest/gtest.h>

#include "consent/authority.hpp"
#include "crypto/sha256_backend.hpp"
#include "rp/relying_party.hpp"
#include "rp/sync_engine.hpp"
#include "rpki/chaos.hpp"
#include "rpki/signing.hpp"
#include "util/errors.hpp"
#include "util/rng.hpp"

namespace rpkic {
namespace {

using consent::Authority;
using consent::AuthorityDirectory;
using consent::AuthorityOptions;
using rp::AlarmType;
using rp::RelyingParty;
using rp::RpOptions;

IpPrefix pfx(const char* s) {
    return IpPrefix::parse(s);
}

struct Fixture {
    Repository repo;
    AuthorityDirectory dir{121, AuthorityOptions{.ts = 4, .signerHeight = 6,
                                                 .manifestLifetime = 1000}};
    SimClock clock;
    Authority* root;
    Authority* org;

    Fixture() {
        root = &dir.createTrustAnchor("root", ResourceSet::ofPrefixes({pfx("10.0.0.0/8")}),
                                      repo, clock.now());
        org = &dir.createChild(*root, "org", ResourceSet::ofPrefixes({pfx("10.1.0.0/16")}),
                               repo, clock.now());
        org->issueRoa("r", 64500, {{pfx("10.1.0.0/20"), 24}}, repo, clock.now());
    }
};

TEST(RpCache, SerializedStateRestoresIdentically) {
    Fixture f;
    RelyingParty alice("alice", {f.root->cert()}, RpOptions{.ts = 4, .tg = 8});
    alice.sync(f.repo.snapshot(), f.clock.now());

    const Bytes blob = alice.serializeState();
    RelyingParty restored = RelyingParty::deserializeState(ByteView(blob.data(), blob.size()));

    EXPECT_EQ(restored.name(), alice.name());
    EXPECT_EQ(restored.roaState(), alice.roaState());
    EXPECT_EQ(restored.alarms().count(), alice.alarms().count());
    const auto claimsA = alice.exportManifestClaims();
    const auto claimsB = restored.exportManifestClaims();
    ASSERT_EQ(claimsA.size(), claimsB.size());
    for (std::size_t i = 0; i < claimsA.size(); ++i) {
        EXPECT_EQ(claimsA[i].bodyHash, claimsB[i].bodyHash);
        EXPECT_EQ(claimsA[i].number, claimsB[i].number);
    }
    // And re-serialization is byte-identical (canonical state).
    EXPECT_EQ(restored.serializeState(), blob);
}

/// Counts SHA-256 block compressions while alive (single-threaded tests
/// only): a manifest verification costs hundreds of them.
class CompressionCounter {
public:
    CompressionCounter() {
        (void)sha256(std::string_view("resolve the backend before wrapping it"));
        inner_ = sha256_backend::exchangeCompress(&counting);
        count_ = 0;
    }
    ~CompressionCounter() { sha256_backend::exchangeCompress(inner_); }
    static std::uint64_t count() { return count_; }

private:
    static void counting(std::uint32_t* state, const std::uint8_t* blocks, std::size_t n) {
        count_ += n;
        inner_(state, blocks, n);
    }
    static inline sha256_backend::CompressFn inner_ = nullptr;
    static inline std::uint64_t count_ = 0;
};

TEST(RpCache, VerifyMemoIsNotPersisted) {
    Fixture f;
    RelyingParty alice("alice", {f.root->cert()}, RpOptions{.ts = 4, .tg = 8});
    alice.sync(f.repo.snapshot(), f.clock.now());
    const Bytes blob = alice.serializeState();
    RelyingParty restored = RelyingParty::deserializeState(ByteView(blob.data(), blob.size()));
    // The memo is runtime state: the restored cache serializes to the
    // same bytes although its memo is empty.
    EXPECT_EQ(restored.serializeState(), blob);

    // What verifying every manifest of the snapshot once costs.
    const Snapshot snap = f.repo.snapshot();
    std::uint64_t verifyCost = 0;
    {
        CompressionCounter counter;
        for (const Authority* a : {f.root, f.org}) {
            const Bytes& raw = *snap.file(a->pubPointUri(), kManifestName);
            const Manifest m = Manifest::decode(ByteView(raw.data(), raw.size()));
            ASSERT_TRUE(verifyObject(m, a->cert().subjectKey));
        }
        verifyCost = CompressionCounter::count();
    }
    ASSERT_GT(verifyCost, 0u);

    // Alice remembers both verdicts; the restored relying party verifies
    // both manifests on its first round.
    std::uint64_t aliceCost = 0;
    std::uint64_t restoredCost = 0;
    {
        CompressionCounter counter;
        alice.sync(snap, f.clock.now());
        aliceCost = CompressionCounter::count();
    }
    {
        CompressionCounter counter;
        restored.sync(snap, f.clock.now());
        restoredCost = CompressionCounter::count();
    }
    EXPECT_LT(aliceCost, verifyCost);
    EXPECT_GE(restoredCost, aliceCost + verifyCost);
    EXPECT_EQ(restored.alarms().count(), 0u);
    EXPECT_EQ(restored.serializeState(), alice.serializeState());
    EXPECT_EQ(restored.roaState(), alice.roaState());
}

TEST(RpCache, AnUnchangedRoundHashesNoLoggedFileBytes) {
    Fixture f;
    for (int i = 0; i < 3; ++i) {
        const std::string name = "isp" + std::to_string(i);
        const IpPrefix space = pfx(("10.1." + std::to_string(16 * i) + ".0/20").c_str());
        Authority& isp = f.dir.createChild(*f.org, name, ResourceSet::ofPrefixes({space}),
                                           f.repo, f.clock.now());
        isp.issueRoa("a", static_cast<Asn>(64510 + i), {{space, 24}}, f.repo, f.clock.now());
    }
    RepositorySource source(f.repo);
    obs::Registry registry;
    RelyingParty alice("alice", {f.root->cert()}, RpOptions{.ts = 4, .tg = 8}, &registry);
    rp::SyncEngine engine(alice, source, rp::SyncPolicy{}, &registry);
    engine.syncRound(f.clock.now());
    ASSERT_EQ(alice.validRoaCount(), 4u);
    const Snapshot snap = f.repo.snapshot();
    ASSERT_EQ(snap.points.size(), 5u);
    // Hashing the snapshot's files once would take at least this many.
    ASSERT_GT(snap.totalBytes() / 64, 500u);

    // The same snapshot again: every file equals a copy the relying party
    // admitted under the hash its manifest still logs, and every manifest
    // equals the verified head. Nothing is hashed, verified or re-encoded.
    std::uint64_t unchanged = 0;
    {
        CompressionCounter counter;
        engine.syncRound(f.clock.now());
        unchanged = CompressionCounter::count();
    }
    EXPECT_EQ(unchanged, 0u);

    // One point changes: the round pays for that point (its manifest's
    // signature check and its own files), which stays below a signature
    // check plus one hash of every file of the snapshot.
    f.clock.advance(1);
    f.org->refreshManifest(f.repo, f.clock.now());
    std::uint64_t oneChanged = 0;
    {
        CompressionCounter counter;
        engine.syncRound(f.clock.now());
        oneChanged = CompressionCounter::count();
    }
    std::uint64_t verifyCost = 0;
    {
        const Bytes& raw = *f.repo.file(f.org->pubPointUri(), kManifestName);
        const Manifest m = Manifest::decode(ByteView(raw.data(), raw.size()));
        CompressionCounter counter;
        ASSERT_TRUE(verifyObject(m, f.org->cert().subjectKey));
        verifyCost = CompressionCounter::count();
    }
    EXPECT_GT(oneChanged, verifyCost);
    EXPECT_LT(oneChanged, verifyCost + snap.totalBytes() / 64);
    EXPECT_EQ(alice.alarms().count(), 0u);
}

TEST(RpCache, TransitionDetectionSurvivesRestart) {
    Fixture f;
    Bytes blob;
    {
        // Process 1: sync day 0, persist, exit.
        RelyingParty alice("alice", {f.root->cert()}, RpOptions{.ts = 4, .tg = 8});
        alice.sync(f.repo.snapshot(), f.clock.now());
        ASSERT_EQ(alice.alarms().count(), 0u);
        blob = alice.serializeState();
    }

    // The world moves on: a unilateral revocation happens meanwhile.
    f.clock.advance(1);
    f.root->unsafeUnilateralRevokeChild("org", f.repo, f.clock.now());

    {
        // Process 2: restore, sync day 1 — the takedown must be caught with
        // full accountability, exactly as if the process had never exited.
        RelyingParty alice = RelyingParty::deserializeState(ByteView(blob.data(), blob.size()));
        alice.sync(f.repo.snapshot(), f.clock.now());
        const auto alarms = alice.alarms().ofType(AlarmType::UnilateralRevocation);
        ASSERT_FALSE(alarms.empty());
        EXPECT_TRUE(alarms[0].accountable);
        EXPECT_EQ(alarms[0].victim, f.org->cert().uri);
        EXPECT_EQ(alarms[0].perpetrator, f.root->cert().uri);
    }
}

TEST(RpCache, ConsentKnowledgeSurvivesRestart) {
    Fixture f;
    RelyingParty alice("alice", {f.root->cert()}, RpOptions{.ts = 4, .tg = 8});
    alice.sync(f.repo.snapshot(), f.clock.now());

    f.clock.advance(1);
    const auto deads = f.dir.collectRevocationConsent(*f.org);
    f.root->revokeChild("org", deads, f.repo, f.clock.now());
    alice.sync(f.repo.snapshot(), f.clock.now());
    ASSERT_TRUE(alice.sawDeadFor(f.org->cert().uri, f.org->cert().serial));

    const Bytes blob = alice.serializeState();
    RelyingParty restored = RelyingParty::deserializeState(ByteView(blob.data(), blob.size()));
    EXPECT_TRUE(restored.sawDeadFor(f.org->cert().uri, f.org->cert().serial));
    EXPECT_EQ(restored.alarms().count(), 0u);
}

TEST(RpCache, CorruptedCachesAreRejected) {
    Fixture f;
    RelyingParty alice("alice", {f.root->cert()}, RpOptions{.ts = 4, .tg = 8});
    alice.sync(f.repo.snapshot(), f.clock.now());
    const Bytes blob = alice.serializeState();

    // Truncations at various depths must throw, never crash or half-load.
    for (std::size_t len = 0; len < blob.size(); len += blob.size() / 23 + 1) {
        EXPECT_THROW((void)RelyingParty::deserializeState(ByteView(blob.data(), len)),
                     ParseError)
            << "length " << len;
    }
    // Bad magic.
    Bytes badMagic = blob;
    badMagic[0] ^= 0xff;
    EXPECT_THROW(
        (void)RelyingParty::deserializeState(ByteView(badMagic.data(), badMagic.size())),
        ParseError);
    // Random bit flips either throw ParseError or produce a cache that
    // still serializes (no UB / crashes).
    Rng rng(5);
    for (int i = 0; i < 50; ++i) {
        Bytes mutated = blob;
        mutated[static_cast<std::size_t>(rng.nextBelow(mutated.size()))] ^=
            static_cast<std::uint8_t>(1u << rng.nextBelow(8));
        try {
            RelyingParty restored =
                RelyingParty::deserializeState(ByteView(mutated.data(), mutated.size()));
            (void)restored.serializeState();
        } catch (const ParseError&) {
        }
    }
}

TEST(RpCache, ChecksumMismatchIsPreciseNotMidStream) {
    Fixture f;
    RelyingParty alice("alice", {f.root->cert()}, RpOptions{.ts = 4, .tg = 8});
    alice.sync(f.repo.snapshot(), f.clock.now());
    const Bytes blob = alice.serializeState();

    // Flip one bit deep inside the body: the error must name the checksum,
    // not whatever field the flipped byte happened to land in.
    Bytes mutated = blob;
    mutated[mutated.size() / 2] ^= 0x01;
    try {
        (void)RelyingParty::deserializeState(ByteView(mutated.data(), mutated.size()));
        FAIL() << "bit-flipped cache was accepted";
    } catch (const ParseError& e) {
        EXPECT_NE(std::string(e.what()).find("cache checksum mismatch"), std::string::npos)
            << e.what();
    }
}

TEST(RpCache, LegacyFooterlessCachesNeedExplicitOptIn) {
    constexpr std::size_t kFooterLen = 8 + 32 + 4;
    Fixture f;
    RelyingParty alice("alice", {f.root->cert()}, RpOptions{.ts = 4, .tg = 8});
    alice.sync(f.repo.snapshot(), f.clock.now());
    const Bytes blob = alice.serializeState();
    ASSERT_GT(blob.size(), kFooterLen);

    // A pre-footer cache is exactly today's body without the trailer.
    const Bytes legacy(blob.begin(), blob.end() - static_cast<std::ptrdiff_t>(kFooterLen));

    // Strict mode refuses it with a precise diagnosis...
    try {
        (void)RelyingParty::deserializeState(ByteView(legacy.data(), legacy.size()));
        FAIL() << "footerless cache was accepted without the opt-in";
    } catch (const ParseError& e) {
        EXPECT_NE(std::string(e.what()).find("no integrity footer"), std::string::npos)
            << e.what();
    }

    // ... and the explicit opt-in restores the identical state, which then
    // re-serializes in the new footered format.
    RelyingParty restored = RelyingParty::deserializeState(
        ByteView(legacy.data(), legacy.size()), /*allowLegacy=*/true);
    EXPECT_EQ(restored.roaState(), alice.roaState());
    EXPECT_EQ(restored.serializeState(), blob);
}

}  // namespace
}  // namespace rpkic
