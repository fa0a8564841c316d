// Mirror-world detection (paper §3.3, §5.4): a misbehaving authority shows
// Alice one view of its publication point and Bob another. Locally both
// views verify; the global consistency check — comparing manifest hashes —
// exposes the fork.
//
//   $ ./mirror_world_audit
#include <cstdio>

#include "consent/authority.hpp"
#include "rp/relying_party.hpp"

using namespace rpkic;
using consent::Authority;
using consent::AuthorityDirectory;
using consent::AuthorityOptions;

namespace {

IpPrefix pfx(const char* s) {
    return IpPrefix::parse(s);
}

}  // namespace

int main() {
    Repository worldA;
    AuthorityDirectory dir(11, AuthorityOptions{.ts = 4, .signerHeight = 6,
                                                .manifestLifetime = 20});
    SimClock clock;
    Authority& rir = dir.createTrustAnchor("rir", ResourceSet::ofPrefixes({pfx("10.0.0.0/8")}),
                                           worldA, clock.now());
    Authority& org = dir.createChild(rir, "org", ResourceSet::ofPrefixes({pfx("10.1.0.0/16")}),
                                     worldA, clock.now());
    org.issueRoa("anycast", 64496, {{pfx("10.1.0.0/16"), 24}}, worldA, clock.now());

    rp::RelyingParty alice("alice", {rir.cert()}, rp::RpOptions{.ts = 4, .tg = 8});
    rp::RelyingParty bob("bob", {rir.cert()}, rp::RpOptions{.ts = 4, .tg = 8});
    alice.sync(worldA.snapshot(), clock.now());
    bob.sync(worldA.snapshot(), clock.now());
    std::printf("day 0: alice and bob agree, %zu valid ROA(s) each\n",
                alice.validRoaCount());

    // --- the fork -----------------------------------------------------------
    // org duplicates its signing state and publishes diverging updates: the
    // world Bob sees loses the anycast ROA; Alice's world keeps it.
    clock.advance(1);
    Repository worldB = worldA;
    Authority& mirror = org.unsafeForkForMirrorWorld();
    org.issueRoa("extra", 64497, {{pfx("10.1.7.0/24"), 24}}, worldA, clock.now());
    mirror.deleteRoa("anycast", worldB, clock.now());

    alice.sync(worldA.snapshot(), clock.now());
    bob.sync(worldB.snapshot(), clock.now());
    std::printf("day 1: alice sees %zu ROAs, bob sees %zu — and neither has alarms "
                "(%zu / %zu)\n",
                alice.validRoaCount(), bob.validRoaCount(), alice.alarms().count(),
                bob.alarms().count());

    // --- the audit ----------------------------------------------------------
    // Bob posts the hashes of the latest manifest he obtained per point
    // (no synchronization needed, paper §5.4); Alice checks them against
    // every manifest hash she obtained within tg, and vice versa.
    std::printf("\nrunning the global consistency check both ways...\n");
    alice.globalConsistencyCheck(bob.exportManifestClaims(), clock.now());
    bob.globalConsistencyCheck(alice.exportManifestClaims(), clock.now());

    for (const auto& alarm : alice.alarms().all()) {
        std::printf("  alice: %s\n", alarm.str().c_str());
    }
    for (const auto& alarm : bob.alarms().all()) {
        std::printf("  bob:   %s\n", alarm.str().c_str());
    }

    std::printf("\nBoth manifests carry the same number but different contents, so the\n"
                "alarm is ACCOUNTABLE: publishing the two signed manifests proves the\n"
                "authority equivocated (paper Theorems 5.2/5.3). Without the check,\n"
                "Alice and Bob would live in mirror worlds indefinitely.\n");
    return 0;
}
