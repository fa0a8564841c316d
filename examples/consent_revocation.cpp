// The consent workflow of the redesigned RPKI (paper §5.3): a revocation
// with recursively collected .dead objects sails through a relying party's
// checks; the same revocation done unilaterally raises an accountable
// alarm naming the perpetrator.
//
//   $ ./consent_revocation
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

void showAlarms(const rp::RelyingParty& alice) {
    if (alice.alarms().count() == 0) {
        std::printf("  alarms: none\n");
        return;
    }
    for (const auto& alarm : alice.alarms().all()) {
        std::printf("  ALARM %s\n", alarm.str().c_str());
    }
}

}  // namespace

int main() {
    Repository repo;
    AuthorityDirectory dir(7, AuthorityOptions{.ts = 3, .signerHeight = 6,
                                               .manifestLifetime = 20});
    SimClock clock;

    // rir -> isp -> customer, each with address space and a ROA.
    Authority& rir = dir.createTrustAnchor("rir", ResourceSet::ofPrefixes({pfx("10.0.0.0/8")}),
                                           repo, clock.now());
    Authority& isp = dir.createChild(rir, "isp", ResourceSet::ofPrefixes({pfx("10.4.0.0/14")}),
                                     repo, clock.now());
    Authority& customer = dir.createChild(
        isp, "customer", ResourceSet::ofPrefixes({pfx("10.4.8.0/21")}), repo, clock.now());
    customer.issueRoa("site", 64500, {{pfx("10.4.8.0/21"), 24}}, repo, clock.now());

    rp::RelyingParty alice("alice", {rir.cert()}, rp::RpOptions{.ts = 3, .tg = 6});
    alice.sync(repo.snapshot(), clock.now());
    std::printf("initial sync: %zu valid ROAs\n", alice.validRoaCount());
    showAlarms(alice);

    // --- Consensual revocation ----------------------------------------------
    // The ISP wants its customer's RC gone (say, the contract ended). Under
    // the new rules it must first collect .dead objects from the customer
    // and every impacted descendant.
    std::printf("\n[1] the ISP revokes the customer WITH consent\n");
    clock.advance(1);
    const std::vector<DeadObject> deads = dir.collectRevocationConsent(customer);
    std::printf("  collected %zu .dead object(s)\n", deads.size());
    isp.revokeChild("customer", deads, repo, clock.now());
    alice.sync(repo.snapshot(), clock.now());
    std::printf("  after revocation: %zu valid ROAs\n", alice.validRoaCount());
    std::printf("  Alice saw the customer's .dead: %s\n",
                alice.sawDeadFor(customer.cert().uri, customer.cert().serial) ? "yes" : "no");
    showAlarms(alice);

    // --- Unilateral revocation ----------------------------------------------
    // Meanwhile another ISP takes down its child without asking anyone.
    std::printf("\n[2] a second ISP revokes its customer WITHOUT consent\n");
    Authority& isp2 = dir.createChild(rir, "isp2", ResourceSet::ofPrefixes({pfx("10.8.0.0/14")}),
                                      repo, clock.now());
    Authority& victim = dir.createChild(
        isp2, "victim", ResourceSet::ofPrefixes({pfx("10.8.16.0/21")}), repo, clock.now());
    victim.issueRoa("site", 64501, {{pfx("10.8.16.0/21"), 24}}, repo, clock.now());
    alice.sync(repo.snapshot(), clock.now());

    clock.advance(1);
    isp2.unsafeUnilateralRevokeChild("victim", repo, clock.now());
    alice.sync(repo.snapshot(), clock.now());
    showAlarms(alice);

    std::printf("\nThe unilateral case produced an ACCOUNTABLE unilateral-revocation\n"
                "alarm naming isp2 — Alice can publish the two consecutive manifests\n"
                "(one logging the victim's RC, the next logging neither the RC nor a\n"
                ".dead) to prove the takedown to anyone (paper Theorem 5.1, §5.5).\n");

    // --- Emergencies ---------------------------------------------------------
    std::printf("[3] emergencies still work: the revocation is possible, just visible.\n"
                "    During disputes or lost keys the issuer revokes unilaterally and\n"
                "    relying parties investigate out of band (paper §5.1).\n");
    return 0;
}
