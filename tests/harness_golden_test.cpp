// Golden outputs of the four scenario harnesses: the chaos soak (with
// kill/restart), the crash sweep, the fleet and every adversary pack.
//
// Each test renders a harness's observable artifacts — stats lines, fault
// plans, epoch dumps, transcripts, counters, and the SHA-256 of postmortem
// bundles and a logical-clock metrics exposition — as text, and compares it
// byte for byte with the file of the same name under
// tests/fixtures/harness_golden/. The goldens pin behaviour across
// refactors of the shared harness plumbing: a mismatch means an output
// changed. There is no regeneration switch; on a mismatch the test prints
// the text it produced and also leaves it next to the test binary as
// <name>.actual for diffing.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "adversary/pack.hpp"
#include "adversary/runner.hpp"
#include "crypto/sha256.hpp"
#include "fleet/fleet.hpp"
#include "obs/clock.hpp"
#include "obs/obs.hpp"
#include "sim/chaos_soak.hpp"
#include "sim/crash_sweep.hpp"
#include "util/parallel.hpp"

namespace rpkic {
namespace {

std::string readGolden(const std::string& name) {
    std::ifstream in(std::string(RC_GOLDEN_DIR) + "/" + name, std::ios::binary);
    std::stringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

void expectGolden(const std::string& name, const std::string& actual) {
    const std::string expected = readGolden(name);
    if (actual == expected) return;
    std::ofstream(name + ".actual", std::ios::binary) << actual;
    ADD_FAILURE() << "output differs from golden " << name << " (" << actual.size()
                  << " vs " << expected.size() << " bytes); produced:\n"
                  << actual;
}

std::string digestLine(const std::string& what, const std::string& bytes) {
    return what + " sha256=" + sha256(bytes).hex() + "\n";
}

std::string bundleLines(const std::vector<obs::CapturedBundle>& bundles) {
    std::string out;
    for (const obs::CapturedBundle& b : bundles) {
        out += digestLine("bundle " + b.label + " trigger=" + b.trigger, b.bytes);
    }
    return out;
}

std::string violationLines(const std::vector<std::string>& violations) {
    std::string out;
    for (const std::string& v : violations) out += "violation " + v + "\n";
    return out;
}

/// The goldens pin the default build: with RC_OBSERVABILITY=OFF the
/// compiled-out timers change the metrics digests inside bundles and the
/// exposition.
class HarnessGolden : public ::testing::Test {
protected:
    void SetUp() override {
        if (!obs::compiledIn()) GTEST_SKIP() << "RC_OBSERVABILITY=OFF build";
    }
};

std::string soakText(const sim::SoakResult& r) {
    const sim::SoakStats& s = r.stats;
    std::ostringstream os;
    os << "soak seed=" << r.seed << " passed=" << r.passed << " faults=" << s.faultsScheduled
       << " hits=" << s.faultApplications << " attempts=" << s.attempts
       << " retries=" << s.retries << " absorbed=" << s.faultsAbsorbed
       << " failed=" << s.pointRoundsFailed << " max-stale=" << s.maxStaleStreak
       << " recoveries=" << s.recoveries << " mean-recovery=" << s.meanRecoveryRounds
       << " alarms=" << s.alarms << " accountable=" << s.accountableAlarms
       << " twin-alarms=" << s.twinAlarms << " roas=" << s.validRoasFinal << "/"
       << s.twinValidRoasFinal << " divergent=" << s.divergentCleanRounds
       << " crashes=" << s.crashes << " commits=" << s.storeCommits
       << " store-recoveries=" << s.storeRecoveries << " torn=" << s.storeTornBytes
       << " redone=" << s.roundsRedone << "\n";
    for (const rp::SyncReport& rep : r.rounds) {
        os << "report round=" << rep.round << " listed=" << rep.pointsListed
           << " delivered=" << rep.pointsDelivered << " failed=" << rep.pointsFailed
           << " quarantined=" << rep.pointsQuarantined << " attempts=" << rep.attempts
           << " retries=" << rep.retries << " alarms=" << rep.alarmsRaised
           << " roas=" << rep.validRoas << "\n";
    }
    os << violationLines(r.violations) << bundleLines(r.postmortems) << r.plan.serialize()
       << r.epochDump;
    return os.str();
}

TEST_F(HarnessGolden, SoakWithKillRestart) {
    std::string out;
    for (const std::uint64_t seed : {1ull, 2ull}) {
        sim::SoakConfig cfg;
        cfg.seed = seed;
        cfg.rounds = 16;
        cfg.crashEvery = 3;
        cfg.captureEpochs = true;
        out += soakText(sim::runSoak(cfg));
    }
    expectGolden("soak.txt", out);
}

TEST_F(HarnessGolden, SoakForcedFailureBundleAndMetricsExposition) {
    sim::SoakConfig forced;
    forced.seed = 5;
    forced.rounds = 12;
    forced.forceInvariantFail = true;
    const sim::SoakResult failed = sim::runSoak(forced);
    std::string out = violationLines(failed.violations) + bundleLines(failed.postmortems);

    // The exposition `rpkic-soak --metrics-out` writes is rendered on the
    // deterministic logical clock; do the same into a run-local registry.
    obs::LogicalTimeSource logicalClock;
    obs::setTimeSource(&logicalClock);
    obs::Registry registry;
    sim::SoakConfig cfg;
    cfg.seed = 3;
    cfg.rounds = 10;
    cfg.crashEvery = 3;
    cfg.registry = &registry;
    const sim::SoakResult r = sim::runSoak(cfg);
    obs::setTimeSource(nullptr);
    out += "metrics passed=" + std::to_string(r.passed) + "\n";
    out += digestLine("metrics exposition", registry.renderPrometheus());
    expectGolden("soak_bundle_metrics.txt", out);
}

TEST_F(HarnessGolden, CrashSweepCounters) {
    std::ostringstream os;
    for (const std::uint64_t seed : {2ull, 3ull}) {
        sim::SweepConfig cfg;
        cfg.seed = seed;
        cfg.rounds = 3;
        const sim::SweepResult r = sim::runCrashSweep(cfg);
        os << "sweep seed=" << seed << " passed=" << r.passed
           << " crash-points=" << r.crashPoints << " fired=" << r.crashesFired
           << " pre=" << r.recoveredPre << " post=" << r.recoveredPost
           << " none=" << r.recoveredNone << " torn=" << r.tornBytes
           << " resumed=" << r.roundsResumed << "\n"
           << violationLines(r.violations) << bundleLines(r.postmortems);
    }
    expectGolden("crash_sweep.txt", os.str());
}

TEST_F(HarnessGolden, FleetWithCrashStallAndMirror) {
    rc::parallel::Pool pool(2);
    fleet::FleetConfig cfg;
    cfg.seed = 1;
    cfg.members = 7;
    cfg.quorum = 4;
    cfg.epochs = 14;
    cfg.faulty = fleet::MemberFaultSpec::parseSet("1:crash:3:4,3:stall:5,5:mirror:6");
    cfg.pool = &pool;
    const fleet::FleetResult r = fleet::runFleet(cfg);
    const fleet::FleetStats& s = r.stats;
    std::ostringstream os;
    os << "fleet seed=" << r.seed << " passed=" << r.passed << " epochs=" << s.epochs
       << " outputs=" << s.outputEpochs << " unanimous=" << s.unanimousEpochs
       << " no-quorum=" << s.noQuorumEpochs << " votes=" << s.votesCast
       << " rejected=" << s.votesRejected << " stale=" << s.votesStale
       << " crashes=" << s.crashes << " restarts=" << s.restarts
       << " verdicts=c" << s.verdictsCrashed << "/s" << s.verdictsStalled << "/m"
       << s.verdictsMirrorFed << " roas=" << s.finalOutputRoas << "/" << s.twinFinalRoas
       << " alarms=" << r.alarms.size() << "\n";
    for (const rp::Alarm& a : r.alarms) os << "alarm " << a.str() << "\n";
    os << violationLines(r.violations) << bundleLines(r.postmortems)
       << r.transcript.serialize();
    expectGolden("fleet.txt", os.str());
}

TEST_F(HarnessGolden, EveryPackAtSeedOne) {
    std::string out;
    for (const std::string& name : adversary::resolvePackList("all")) {
        adversary::PackRunConfig cfg;
        cfg.pack = name;
        cfg.seed = 1;
        const adversary::PackRunResult r = adversary::runPack(cfg);
        out += r.transcript + r.plan.serialize() + bundleLines(r.postmortems);
    }
    expectGolden("packs.txt", out);
}

}  // namespace
}  // namespace rpkic
