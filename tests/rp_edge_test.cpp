// Relying-party edge cases: replay prevention, stale-then-recover cycles,
// forged .dead objects, desynchronization beyond the preservation window,
// vertical ROA checks, and hash-window expiry in the global check.
#include <gtest/gtest.h>

#include "consent/authority.hpp"
#include "rpki/chaos.hpp"
#include "rp/relying_party.hpp"

namespace rpkic {
namespace {

using consent::Authority;
using consent::AuthorityDirectory;
using consent::AuthorityOptions;
using rp::AlarmType;
using rp::RcStatus;
using rp::RelyingParty;
using rp::RpOptions;

IpPrefix pfx(const char* s) {
    return IpPrefix::parse(s);
}

struct Fixture {
    Repository repo;
    AuthorityDirectory dir{31, AuthorityOptions{.ts = 3, .signerHeight = 6,
                                                .manifestLifetime = 100}};
    SimClock clock;
    Authority* root;
    Authority* org;

    Fixture() {
        root = &dir.createTrustAnchor("root", ResourceSet::ofPrefixes({pfx("10.0.0.0/8")}),
                                      repo, clock.now());
        org = &dir.createChild(*root, "org", ResourceSet::ofPrefixes({pfx("10.1.0.0/16")}),
                               repo, clock.now());
    }

    RelyingParty rp(const std::string& name) {
        return RelyingParty(name, {root->cert()}, RpOptions{.ts = 3, .tg = 6});
    }
};

TEST(RpEdge, ReplayedRcRaisesInvalidSyntax) {
    // §5.3.2 "Preventing replays": an authority cannot put a revoked RC
    // back and reuse its old .dead later — serials must keep increasing.
    Fixture f;
    Authority& victim = f.dir.createChild(
        *f.org, "victim", ResourceSet::ofPrefixes({pfx("10.1.0.0/20")}), f.repo, f.clock.now());
    const Bytes oldRcBytes = victim.cert().encode();
    const std::string rcFile = "victim.cer";

    RelyingParty alice = f.rp("alice");
    alice.sync(f.repo.snapshot(), f.clock.now());

    // Consensual revocation first — no alarm.
    f.clock.advance(1);
    const auto deads = f.dir.collectRevocationConsent(victim);
    f.org->revokeChild("victim", deads, f.repo, f.clock.now());
    alice.sync(f.repo.snapshot(), f.clock.now());
    ASSERT_EQ(alice.alarms().count(), 0u);

    // Replay: the old RC bytes reappear (old serial <= high-water mark).
    f.clock.advance(1);
    f.org->unsafeReintroduceFile(rcFile, oldRcBytes, f.repo, f.clock.now());
    alice.sync(f.repo.snapshot(), f.clock.now());
    const auto alarms = alice.alarms().ofType(AlarmType::InvalidSyntax);
    ASSERT_FALSE(alarms.empty());
    EXPECT_TRUE(alarms[0].accountable);
    // Two independent rules catch this: "RC logged beside its own .dead"
    // (the .deads are still logged) and the serial high-water check.
    bool serialOrDead = false;
    for (const auto& a : alarms) {
        serialOrDead |= a.detail.find("serial") != std::string::npos ||
                        a.detail.find(".dead") != std::string::npos;
    }
    EXPECT_TRUE(serialOrDead);
    // The replayed RC must not become valid again.
    EXPECT_NE(alice.findRc(victim.cert().uri)->status, RcStatus::Valid);
}

TEST(RpEdge, StaleThenRecoverKeepsContinuity) {
    Fixture f;
    f.org->issueRoa("r", 64500, {{pfx("10.1.0.0/20"), 24}}, f.repo, f.clock.now());
    RelyingParty alice = f.rp("alice");
    alice.sync(f.repo.snapshot(), f.clock.now());
    ASSERT_EQ(alice.validRoas().size(), 1u);

    // One sync where org's manifest is missing: stale, old data retained.
    f.clock.advance(1);
    Snapshot broken = f.repo.snapshot();
    ASSERT_TRUE(dropFile(broken, f.org->pubPointUri(), kManifestName));
    alice.sync(broken, f.clock.now());
    EXPECT_TRUE(alice.alarms().has(AlarmType::MissingInformation));
    EXPECT_EQ(alice.validRoas().size(), 1u) << "stale data is kept, not dropped";
    EXPECT_TRUE(alice.isPointStale(f.org->pubPointUri()));

    // Next sync is healthy again, including an update made meanwhile.
    f.clock.advance(1);
    f.org->issueRoa("r2", 64501, {{pfx("10.1.16.0/20"), 24}}, f.repo, f.clock.now());
    const std::size_t alarmsBefore = alice.alarms().count();
    alice.sync(f.repo.snapshot(), f.clock.now());
    EXPECT_EQ(alice.alarms().count(), alarmsBefore) << "recovery raises nothing new";
    EXPECT_EQ(alice.validRoas().size(), 2u);
}

TEST(RpEdge, ForgedDeadIsRejected) {
    // A .dead whose signature does not verify under the named RC's key
    // must not count as consent (and is itself an accountable alarm).
    Fixture f;
    Authority& victim = f.dir.createChild(
        *f.org, "victim", ResourceSet::ofPrefixes({pfx("10.1.0.0/20")}), f.repo, f.clock.now());
    RelyingParty alice = f.rp("alice");
    alice.sync(f.repo.snapshot(), f.clock.now());

    // Forge: parent signs a .dead claiming to be the victim's.
    f.clock.advance(1);
    DeadObject forged;
    forged.rcUri = victim.cert().uri;
    forged.rcSerial = victim.cert().serial;
    forged.rcHash = fileHashOf(ByteView(victim.cert().encode().data(),
                                        victim.cert().encode().size()));
    forged.signerManifestHash = Digest{};
    forged.fullRevocation = true;
    // Signed by the WRONG key (the parent's own), via the consent-free
    // unilateral path plus a bogus file.
    {
        // The honest API refuses; assemble the attack by hand.
        Signer wrongKey = Signer::generate(4444, 4);
        const Bytes body = forged.encodeBody();
        forged.signature = wrongKey.sign(ByteView(body.data(), body.size()));
    }
    f.org->unsafeReintroduceFile("victim.cer.1.fake.dead", forged.encode(), f.repo,
                                 f.clock.now());
    f.org->unsafeUnilateralRevokeChild("victim", f.repo, f.clock.now());
    alice.sync(f.repo.snapshot(), f.clock.now());

    EXPECT_TRUE(alice.alarms().has(AlarmType::InvalidSyntax))
        << "the forged .dead is provably bad";
    EXPECT_TRUE(alice.alarms().has(AlarmType::UnilateralRevocation))
        << "and it does not count as consent";
    EXPECT_FALSE(alice.sawDeadFor(victim.cert().uri, victim.cert().serial));
}

TEST(RpEdge, DesyncBeyondPreservationWindowGoesStaleNotWrong) {
    // Alice sleeps past ts; the authority has pruned the preserved
    // manifests she would need. She raises missing-information and keeps
    // stale data rather than guessing.
    Fixture f;
    f.org->issueRoa("r", 64500, {{pfx("10.1.0.0/20"), 24}}, f.repo, f.clock.now());
    RelyingParty alice = f.rp("alice");
    alice.sync(f.repo.snapshot(), f.clock.now());

    // Many updates, spread far beyond ts = 3.
    for (int i = 0; i < 6; ++i) {
        f.clock.advance(2);
        f.org->issueRoa("r" + std::to_string(i), static_cast<Asn>(64501 + i),
                        {{pfx("10.1.16.0/20"), 24}}, f.repo, f.clock.now());
    }
    alice.sync(f.repo.snapshot(), f.clock.now());
    EXPECT_TRUE(alice.alarms().has(AlarmType::MissingInformation));
    EXPECT_TRUE(alice.isPointStale(f.org->pubPointUri()));
    // Her ROA view is the stale one (1 ROA), not a half-applied mixture.
    EXPECT_EQ(alice.validRoas().size(), 1u);
}

TEST(RpEdge, AHeadThatVerifiedButCouldNotBeAppliedStaysStaleWhenServedAgain) {
    // The new head verifies, but the chain to it cannot be rebuilt. Served
    // again byte for byte, it must not pass for the head Alice holds.
    Fixture f;
    f.org->issueRoa("r", 64500, {{pfx("10.1.0.0/20"), 24}}, f.repo, f.clock.now());
    RelyingParty alice = f.rp("alice");
    alice.sync(f.repo.snapshot(), f.clock.now());
    for (int i = 0; i < 6; ++i) {
        f.clock.advance(2);
        f.org->issueRoa("r" + std::to_string(i), static_cast<Asn>(64501 + i),
                        {{pfx("10.1.16.0/20"), 24}}, f.repo, f.clock.now());
    }
    const Snapshot gap = f.repo.snapshot();
    alice.sync(gap, f.clock.now());
    ASSERT_TRUE(alice.isPointStale(f.org->pubPointUri()));
    const std::size_t alarmsBefore = alice.alarms().count();

    alice.sync(gap, f.clock.now());
    EXPECT_TRUE(alice.isPointStale(f.org->pubPointUri()));
    EXPECT_GT(alice.alarms().count(), alarmsBefore);
    EXPECT_EQ(alice.validRoas().size(), 1u);
}

TEST(RpEdge, RoaOutsideIssuerSpaceAlarmsChildTooBroad) {
    Fixture f;
    RelyingParty alice = f.rp("alice");
    alice.sync(f.repo.snapshot(), f.clock.now());

    // org's key signs a ROA for space org does not hold, and logs it.
    f.clock.advance(1);
    Roa bogus;
    bogus.uri = f.org->pubPointUri() + "bogus.roa";
    bogus.serial = 999;
    bogus.parentUri = f.org->cert().uri;
    bogus.asn = 666;
    bogus.prefixes = {{pfx("99.0.0.0/8"), 8}};
    // Signed with an arbitrary key: RP checks coverage, not ROA signatures
    // (signatures are the manifest's job in the new design).
    Signer key = Signer::generate(5555, 4);
    const Bytes body = bogus.encodeBody();
    bogus.signature = key.sign(ByteView(body.data(), body.size()));
    f.org->unsafeReintroduceFile("bogus.roa", bogus.encode(), f.repo, f.clock.now());
    alice.sync(f.repo.snapshot(), f.clock.now());

    const auto alarms = alice.alarms().ofType(AlarmType::ChildTooBroad);
    ASSERT_FALSE(alarms.empty());
    EXPECT_NE(alarms[0].victim.find("bogus.roa"), std::string::npos);
    // The bogus ROA does not enter the valid set.
    for (const auto& roa : alice.validRoas()) {
        EXPECT_NE(roa.uri, bogus.uri);
    }
}

TEST(RpEdge, HashWindowExpiryMakesOldClaimsUnverifiable) {
    // Bob presents a manifest hash from before Alice's tg window: she can
    // no longer vouch for it — the check flags it (unaccountably).
    Fixture f;
    RelyingParty alice = f.rp("alice");
    RelyingParty bob = f.rp("bob");
    alice.sync(f.repo.snapshot(), f.clock.now());
    bob.sync(f.repo.snapshot(), f.clock.now());

    // Time passes beyond tg = 6 with fresh activity for Alice; Bob sleeps.
    for (int i = 0; i < 4; ++i) {
        f.clock.advance(2);
        f.org->issueRoa("r" + std::to_string(i), static_cast<Asn>(64500 + i),
                        {{pfx("10.1.0.0/20"), 24}}, f.repo, f.clock.now());
        alice.sync(f.repo.snapshot(), f.clock.now());
    }
    alice.globalConsistencyCheck(bob.exportManifestClaims(), f.clock.now());
    const auto alarms = alice.alarms().ofType(AlarmType::GlobalInconsistency);
    ASSERT_FALSE(alarms.empty());
    EXPECT_FALSE(alarms[0].accountable)
        << "Bob being ancient is suspicious but not provably the authority's fault";
}

TEST(RpEdge, TwoRelyingPartiesIndependentCaches) {
    // Alarms and staleness are per relying party.
    Fixture f;
    f.org->issueRoa("r", 64500, {{pfx("10.1.0.0/20"), 24}}, f.repo, f.clock.now());
    RelyingParty alice = f.rp("alice");
    RelyingParty bob = f.rp("bob");
    alice.sync(f.repo.snapshot(), f.clock.now());

    Snapshot broken = f.repo.snapshot();
    ASSERT_TRUE(corruptFile(broken, f.org->pubPointUri(), kManifestName, 3));
    bob.sync(broken, f.clock.now());

    EXPECT_EQ(alice.alarms().count(), 0u);
    EXPECT_GT(bob.alarms().count(), 0u);
    EXPECT_EQ(alice.validRoas().size(), 1u);
}

// ---------------------------------------------------------------------------
// Verify memo: a manifest verified once is not verified again while its
// bytes and its issuer's key stay the same — and only then.

bool raisedSignatureAlarm(const RelyingParty& rp, const std::string& pointUri) {
    for (const auto& a : rp.alarms().ofType(AlarmType::MissingInformation)) {
        if (a.victim == pointUri + kManifestName &&
            a.detail == "manifest signature does not verify") {
            return true;
        }
    }
    return false;
}

TEST(RpEdge, FlippedSignatureByteFailsAfterTheGoodManifestVerified) {
    Fixture f;
    f.org->issueRoa("r", 64500, {{pfx("10.1.0.0/20"), 24}}, f.repo, f.clock.now());
    RelyingParty alice = f.rp("alice");
    alice.sync(f.repo.snapshot(), f.clock.now());  // the good manifest verifies
    alice.sync(f.repo.snapshot(), f.clock.now());  // ... and is remembered
    ASSERT_EQ(alice.alarms().count(), 0u);

    // Same number, same body, one signature byte flipped (the signature
    // is the manifest's last field, so the file still decodes).
    Snapshot forged = f.repo.snapshot();
    Bytes& mft = forged.points.at(f.org->pubPointUri()).at(kManifestName);
    mft.back() ^= 0x01;
    alice.sync(forged, f.clock.now());
    EXPECT_TRUE(raisedSignatureAlarm(alice, f.org->pubPointUri()));
    EXPECT_TRUE(alice.isPointStale(f.org->pubPointUri()));

    // The genuine bytes still verify afterwards.
    const std::size_t before = alice.alarms().count();
    alice.sync(f.repo.snapshot(), f.clock.now());
    EXPECT_EQ(alice.alarms().count(), before);
    EXPECT_FALSE(alice.isPointStale(f.org->pubPointUri()));
}

TEST(RpEdge, IdenticalManifestUnderAChangedIssuerKeyIsVerifiedAgain) {
    Fixture f;
    f.org->issueRoa("r", 64500, {{pfx("10.1.0.0/20"), 24}}, f.repo, f.clock.now());
    RelyingParty alice = f.rp("alice");
    alice.sync(f.repo.snapshot(), f.clock.now());
    ASSERT_EQ(alice.alarms().count(), 0u);

    // The root swaps org's RC for one with another key (same URI, same
    // point, a fresh serial); org's manifest bytes do not change, but they
    // were signed under the old key and must not verify under the new one.
    const Bytes orgRc = f.org->cert().encode();
    std::string rcFile;
    const Snapshot before = f.repo.snapshot();
    for (const auto& [name, bytes] : *before.point(f.root->pubPointUri())) {
        if (bytes == orgRc) rcFile = name;
    }
    ASSERT_FALSE(rcFile.empty());
    ResourceCert rekeyed = f.org->cert();
    rekeyed.subjectKey.root.bytes[0] ^= 0x01;
    rekeyed.serial = 1000000;
    f.clock.advance(1);
    const Bytes orgManifest = *before.file(f.org->pubPointUri(), kManifestName);
    f.root->unsafeReintroduceFile(rcFile, rekeyed.encode(), f.repo, f.clock.now());
    ASSERT_EQ(*f.repo.snapshot().file(f.org->pubPointUri(), kManifestName), orgManifest);

    alice.sync(f.repo.snapshot(), f.clock.now());
    ASSERT_EQ(alice.findRc(f.org->cert().uri)->cert.subjectKey, rekeyed.subjectKey);
    EXPECT_TRUE(raisedSignatureAlarm(alice, f.org->pubPointUri()));
    EXPECT_TRUE(alice.isPointStale(f.org->pubPointUri()));
}

// ---------------------------------------------------------------------------
// The decoded view behind roaState(): each point's RCs and ROAs, decoded
// once when the point's files change. Statuses, parents and coverage are
// read live, so these hold without any invalidation of the view.

void expectOutputsFresh(const RelyingParty& rp, const std::string& where) {
    const std::vector<Roa> fresh = rp.validRoas();
    EXPECT_EQ(rp.roaState(), RpkiState::fromRoas(fresh)) << where;
    EXPECT_EQ(rp.validRoaCount(), fresh.size()) << where;
}

RoaTuple tuple(const char* prefix, std::uint8_t maxLength, Asn asn) {
    return RoaTuple{pfx(prefix), maxLength, asn};
}

TEST(RpView, NarrowingOrRevokingAnAncestorDropsDescendantRoasTheSameRound) {
    Fixture f;
    Authority& isp = f.dir.createChild(*f.org, "isp", ResourceSet::ofPrefixes({pfx("10.1.0.0/20")}),
                                       f.repo, f.clock.now());
    isp.issueRoa("i", 64501, {{pfx("10.1.0.0/22"), 24}}, f.repo, f.clock.now());
    f.org->issueRoa("o", 64500, {{pfx("10.1.128.0/20"), 24}}, f.repo, f.clock.now());
    RelyingParty alice = f.rp("alice");
    alice.sync(f.repo.snapshot(), f.clock.now());
    ASSERT_EQ(alice.roaState(), RpkiState({tuple("10.1.0.0/22", 24, 64501),
                                           tuple("10.1.128.0/20", 24, 64500)}));

    // The root narrows org out of isp's space: isp's point does not change,
    // yet its ROA goes this round (reevaluateSubtree).
    f.clock.advance(1);
    f.root->unsafeUnilateralNarrowChild("org", ResourceSet::ofPrefixes({pfx("10.1.0.0/20")}),
                                        f.repo, f.clock.now());
    alice.sync(f.repo.snapshot(), f.clock.now());
    EXPECT_NE(alice.findRc(isp.cert().uri)->status, RcStatus::Valid);
    EXPECT_EQ(alice.roaState(), RpkiState({tuple("10.1.128.0/20", 24, 64500)}));
    expectOutputsFresh(alice, "narrowed");

    // Then revokes org outright: everything below it goes
    // (markSubtreeNoLongerValid).
    f.clock.advance(1);
    f.root->unsafeUnilateralRevokeChild("org", f.repo, f.clock.now());
    alice.sync(f.repo.snapshot(), f.clock.now());
    EXPECT_EQ(alice.roaState(), RpkiState());
    expectOutputsFresh(alice, "revoked");
}

TEST(RpView, ARoaReplacedUnderItsFilenameYieldsTheNewTuples) {
    Fixture f;
    f.org->issueRoa("r", 64500, {{pfx("10.1.0.0/20"), 24}}, f.repo, f.clock.now());
    RelyingParty alice = f.rp("alice");
    alice.sync(f.repo.snapshot(), f.clock.now());
    ASSERT_EQ(alice.roaState(), RpkiState({tuple("10.1.0.0/20", 24, 64500)}));

    f.clock.advance(1);
    f.org->issueRoa("r", 64509, {{pfx("10.1.16.0/20"), 20}}, f.repo, f.clock.now());
    alice.sync(f.repo.snapshot(), f.clock.now());
    EXPECT_EQ(alice.roaState(), RpkiState({tuple("10.1.16.0/20", 20, 64509)}));
    expectOutputsFresh(alice, "replaced");
    EXPECT_EQ(alice.alarms().count(), 0u);
}

TEST(RpView, AnUndecodableObjectUnderItsLoggedHashIsSkippedLikeAFreshWalk) {
    Fixture f;
    f.org->issueRoa("r", 64500, {{pfx("10.1.0.0/20"), 24}}, f.repo, f.clock.now());
    RelyingParty alice = f.rp("alice");
    alice.sync(f.repo.snapshot(), f.clock.now());

    // A ROA and an RC cut short: each keeps its type byte, so it is taken
    // for its kind, and fails to decode. The manifest logs both bytes.
    const Bytes roa = *f.repo.file(f.org->pubPointUri(), "r.roa");
    const Bytes rc = f.org->cert().encode();
    f.clock.advance(1);
    f.org->unsafeReintroduceFile("cut.roa", Bytes(roa.begin(), roa.begin() + 40), f.repo,
                                 f.clock.now());
    f.org->unsafeReintroduceFile("cut.cer", Bytes(rc.begin(), rc.begin() + 40), f.repo,
                                 f.clock.now());
    alice.sync(f.repo.snapshot(), f.clock.now());
    EXPECT_EQ(alice.alarms().ofType(AlarmType::InvalidSyntax).size(), 2u);
    EXPECT_FALSE(alice.isPointStale(f.org->pubPointUri()));
    EXPECT_EQ(alice.roaState(), RpkiState({tuple("10.1.0.0/20", 24, 64500)}));
    expectOutputsFresh(alice, "undecodable objects logged");
}

TEST(RpView, ARestoredRelyingPartyRebuildsItsView) {
    Fixture f;
    Authority& isp = f.dir.createChild(*f.org, "isp", ResourceSet::ofPrefixes({pfx("10.1.0.0/20")}),
                                       f.repo, f.clock.now());
    isp.issueRoa("i", 64501, {{pfx("10.1.0.0/22"), 24}}, f.repo, f.clock.now());
    f.org->issueRoa("o", 64500, {{pfx("10.1.128.0/20"), 24}}, f.repo, f.clock.now());
    RelyingParty alice = f.rp("alice");
    alice.sync(f.repo.snapshot(), f.clock.now());
    ASSERT_EQ(alice.validRoaCount(), 2u);

    const Bytes blob = alice.serializeState();
    RelyingParty restored = RelyingParty::deserializeState(ByteView(blob.data(), blob.size()));
    EXPECT_EQ(restored.roaState(), alice.roaState());
    expectOutputsFresh(restored, "restored");

    // The restored views feed the next rounds: an unchanged one, then a
    // ROA replaced two levels down.
    restored.sync(f.repo.snapshot(), f.clock.now());
    EXPECT_EQ(restored.roaState(), alice.roaState());
    f.clock.advance(1);
    isp.issueRoa("i", 64502, {{pfx("10.1.4.0/22"), 22}}, f.repo, f.clock.now());
    alice.sync(f.repo.snapshot(), f.clock.now());
    restored.sync(f.repo.snapshot(), f.clock.now());
    EXPECT_EQ(restored.roaState(), RpkiState({tuple("10.1.4.0/22", 22, 64502),
                                              tuple("10.1.128.0/20", 24, 64500)}));
    EXPECT_EQ(restored.roaState(), alice.roaState());
    expectOutputsFresh(restored, "restored, then synced");
}

}  // namespace
}  // namespace rpkic
