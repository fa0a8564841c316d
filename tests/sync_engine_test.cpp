// The sync engine's probe skips re-hashing bytes the relying party already
// admitted. These tests pin the cases that must still be caught, and
// cross-check the probe against itself: a warm engine (whose relying party
// has accepted state to compare against), a fresh engine over an empty
// relying party, and an engine over a restored relying party must reach
// the same verdict on every point of every round of a chaos schedule.
#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <optional>
#include <tuple>

#include "consent/authority.hpp"
#include "obs/metrics.hpp"
#include "rp/relying_party.hpp"
#include "rp/sync_engine.hpp"
#include "rpki/chaos.hpp"
#include "util/rng.hpp"

namespace rpkic {
namespace {

using consent::Authority;
using consent::AuthorityDirectory;
using consent::AuthorityOptions;
using rp::FetchOutcome;
using rp::RelyingParty;
using rp::RpOptions;
using rp::SyncEngine;
using rp::SyncPolicy;

IpPrefix pfx(const char* s) {
    return IpPrefix::parse(s);
}

struct World {
    Repository repo;
    AuthorityDirectory dir{77, AuthorityOptions{.ts = 4, .signerHeight = 6,
                                                .manifestLifetime = 1000}};
    SimClock clock;
    Authority* root;
    Authority* org;

    World() {
        root = &dir.createTrustAnchor("root", ResourceSet::ofPrefixes({pfx("10.0.0.0/8")}),
                                      repo, clock.now());
        org = &dir.createChild(*root, "org", ResourceSet::ofPrefixes({pfx("10.1.0.0/16")}),
                               repo, clock.now());
        org->issueRoa("r1", 64500, {{pfx("10.1.0.0/20"), 24}}, repo, clock.now());
    }
};

/// The repository as fetched, after `edit` rewrote each point's files.
class EditingSource final : public SnapshotSource {
public:
    using Edit = std::function<void(const std::string& pointUri, std::uint64_t round,
                                    FileMap& files)>;
    EditingSource(const Repository& repo, Edit edit) : inner_(repo), edit_(std::move(edit)) {}

    std::vector<std::string> listPoints(std::uint64_t round) override {
        return inner_.listPoints(round);
    }
    std::optional<FileMap> fetchPoint(const std::string& pointUri, std::uint64_t round,
                                      std::uint32_t attempt) override {
        auto files = inner_.fetchPoint(pointUri, round, attempt);
        if (files.has_value()) edit_(pointUri, round, *files);
        return files;
    }

private:
    RepositorySource inner_;
    Edit edit_;
};

std::uint64_t rejections(const SyncEngine& engine, const std::string& pointUri,
                         FetchOutcome outcome) {
    const rp::PointTelemetry* pt = engine.telemetryFor(pointUri);
    if (pt == nullptr) return 0;
    const auto it = pt->rejections.find(outcome);
    return it == pt->rejections.end() ? 0 : it->second;
}

TEST(SyncEngineProbe, SameBytesUnderANewlyLoggedHashAreRejected) {
    World w;
    const std::string orgPoint = w.org->pubPointUri();
    // Round 1: the manifest logs r1.roa under another hash, while the point
    // serves the very bytes the relying party admitted in round 0.
    EditingSource source(w.repo, [&](const std::string& uri, std::uint64_t round,
                                     FileMap& files) {
        if (round != 1 || uri != orgPoint) return;
        Bytes& raw = files.at(kManifestName);
        Manifest m = Manifest::decode(ByteView(raw.data(), raw.size()));
        for (ManifestEntry& e : m.entries) {
            if (e.filename == "r1.roa") e.fileHash = fileHashOf(ByteView(raw.data(), 8));
        }
        raw = m.encode();
    });
    obs::Registry registry;
    RelyingParty alice("alice", {w.root->cert()}, RpOptions{.ts = 4, .tg = 8}, &registry);
    SyncEngine engine(alice, source, SyncPolicy{.maxAttempts = 1}, &registry);

    engine.syncRound(w.clock.now());
    ASSERT_EQ(engine.telemetryFor(orgPoint)->roundsDelivered, 1u);
    const rp::SyncReport report = engine.syncRound(w.clock.now());
    EXPECT_EQ(report.failedPoints, std::vector<std::string>{orgPoint});
    EXPECT_EQ(rejections(engine, orgPoint, FetchOutcome::LoggedObjectMismatch), 1u);
    EXPECT_EQ(alice.validRoaCount(), 1u);  // the cache keeps what it had
}

TEST(SyncEngineProbe, AChangedByteUnderAnUnchangedLoggedHashIsRejected) {
    World w;
    const std::string orgPoint = w.org->pubPointUri();
    EditingSource source(w.repo, [&](const std::string& uri, std::uint64_t round,
                                     FileMap& files) {
        if (round == 1 && uri == orgPoint) files.at("r1.roa").back() ^= 0x01;
    });
    obs::Registry registry;
    RelyingParty alice("alice", {w.root->cert()}, RpOptions{.ts = 4, .tg = 8}, &registry);
    SyncEngine engine(alice, source, SyncPolicy{.maxAttempts = 1}, &registry);

    engine.syncRound(w.clock.now());
    const rp::SyncReport report = engine.syncRound(w.clock.now());
    EXPECT_EQ(report.failedPoints, std::vector<std::string>{orgPoint});
    EXPECT_EQ(rejections(engine, orgPoint, FetchOutcome::LoggedObjectMismatch), 1u);

    // Round 2 serves the honest bytes again: accepted.
    EXPECT_TRUE(engine.syncRound(w.clock.now()).failedPoints.empty());
    ASSERT_EQ(alice.alarms().count(), 1u);  // round 1's missing-information only
    EXPECT_FALSE(alice.alarms().all().front().accountable);
}

TEST(SyncEngineProbe, AFileFoundOnlyAsAPreservedCopyIsStillAccepted) {
    World w;
    const std::string orgPoint = w.org->pubPointUri();
    // Round 1: r1.roa's name holds junk and its bytes sit under another
    // name; round 2: the name is gone and only the copy is served.
    EditingSource source(w.repo, [&](const std::string& uri, std::uint64_t round,
                                     FileMap& files) {
        if (uri != orgPoint || round == 0) return;
        files["r1.roa.keep"] = files.at("r1.roa");
        if (round == 1) {
            files["r1.roa"] = Bytes{2, 0, 0, 0};
        } else {
            files.erase("r1.roa");
        }
    });
    obs::Registry registry;
    RelyingParty alice("alice", {w.root->cert()}, RpOptions{.ts = 4, .tg = 8}, &registry);
    SyncEngine engine(alice, source, SyncPolicy{.maxAttempts = 1}, &registry);

    for (int round = 0; round < 3; ++round) {
        const rp::SyncReport report = engine.syncRound(w.clock.now());
        EXPECT_TRUE(report.failedPoints.empty()) << "round " << round;
        w.clock.advance(1);
        w.org->refreshManifest(w.repo, w.clock.now());
    }
    EXPECT_EQ(alice.alarms().count(), 0u);
    EXPECT_EQ(alice.validRoaCount(), 1u);
}

TEST(SyncEngineProbe, NothingIsTakenOnTrustWhileTheHeadIsAPostRolloverManifest) {
    // A post-rollover head replaces the manifest but not the files, which
    // were admitted under the manifest before it: the probe gets nothing
    // to compare against until a normal manifest follows.
    World w;
    RelyingParty alice("alice", {w.root->cert()}, RpOptions{.ts = 4, .tg = 8});
    alice.sync(w.repo.snapshot(), w.clock.now());
    ASSERT_TRUE(alice.acceptedPoint(w.org->pubPointUri()).has_value());
    w.clock.advance(1);
    w.org->unsafeBogusPostRollover(w.repo, w.clock.now());
    alice.sync(w.repo.snapshot(), w.clock.now());
    ASSERT_TRUE(alice.alarms().has(rp::AlarmType::BadKeyRollover));
    EXPECT_FALSE(alice.acceptedPoint(w.org->pubPointUri()).has_value());
    EXPECT_TRUE(alice.acceptedPoint(w.root->pubPointUri()).has_value());
}

// ---------------------------------------------------------------------------
// Differential: the probe with and without accepted state to compare with

/// Records every listing and fetch an engine makes; replay() serves them
/// back (anything not recorded is unreachable).
class RecordingSource final : public SnapshotSource {
public:
    explicit RecordingSource(SnapshotSource& inner) : inner_(inner) {}

    std::vector<std::string> listPoints(std::uint64_t round) override {
        return lists_[round] = inner_.listPoints(round);
    }
    std::optional<FileMap> fetchPoint(const std::string& pointUri, std::uint64_t round,
                                      std::uint32_t attempt) override {
        return fetches_[{round, pointUri, attempt}] = inner_.fetchPoint(pointUri, round, attempt);
    }

    class Replay final : public SnapshotSource {
    public:
        explicit Replay(const RecordingSource& rec) : rec_(rec) {}
        std::vector<std::string> listPoints(std::uint64_t round) override {
            const auto it = rec_.lists_.find(round);
            return it == rec_.lists_.end() ? std::vector<std::string>{} : it->second;
        }
        std::optional<FileMap> fetchPoint(const std::string& pointUri, std::uint64_t round,
                                          std::uint32_t attempt) override {
            const auto it = rec_.fetches_.find({round, pointUri, attempt});
            return it == rec_.fetches_.end() ? std::nullopt : it->second;
        }

    private:
        const RecordingSource& rec_;
    };

private:
    SnapshotSource& inner_;
    std::map<std::uint64_t, std::vector<std::string>> lists_;
    std::map<std::tuple<std::uint64_t, std::string, std::uint32_t>, std::optional<FileMap>>
        fetches_;
};

/// One point's verdicts in one round: rejections by outcome, and whether
/// it was delivered in the end.
struct Verdict {
    std::map<FetchOutcome, std::uint64_t> rejected;
    std::uint64_t delivered = 0;
    bool operator==(const Verdict&) const = default;
};
using Verdicts = std::map<std::string, Verdict>;

Verdicts verdictsSince(const std::map<std::string, rp::PointTelemetry>& before,
                       const std::map<std::string, rp::PointTelemetry>& after) {
    Verdicts out;
    for (const auto& [uri, now] : after) {
        const auto prev = before.find(uri);
        Verdict v;
        v.delivered = now.roundsDelivered -
                      (prev == before.end() ? 0 : prev->second.roundsDelivered);
        for (const auto& [outcome, n] : now.rejections) {
            std::uint64_t was = 0;
            if (prev != before.end()) {
                const auto it = prev->second.rejections.find(outcome);
                if (it != prev->second.rejections.end()) was = it->second;
            }
            if (n > was) v.rejected[outcome] = n - was;
        }
        out.emplace(uri, std::move(v));
    }
    return out;
}

/// A world with several points that churns every round and keeps
/// preserved manifests around for chain grafts.
struct ChurningWorld {
    Repository repo;
    AuthorityDirectory dir{91, AuthorityOptions{.ts = 4, .signerHeight = 6,
                                                .manifestLifetime = 1000}};
    SimClock clock;
    Authority* root;
    std::vector<Authority*> orgs;
    std::vector<IpPrefix> spaces{pfx("10.1.0.0/16"), pfx("10.2.0.0/16"), pfx("10.3.0.0/16"),
                                 pfx("10.4.0.0/16")};

    ChurningWorld() {
        root = &dir.createTrustAnchor("root", ResourceSet::ofPrefixes({pfx("10.0.0.0/8")}),
                                      repo, clock.now());
        for (std::size_t i = 0; i < spaces.size(); ++i) {
            Authority& org = dir.createChild(*root, "org" + std::to_string(i),
                                             ResourceSet::ofPrefixes({spaces[i]}), repo,
                                             clock.now());
            org.issueRoa("r", static_cast<Asn>(64500 + i), {{spaces[i], 24}}, repo,
                         clock.now());
            orgs.push_back(&org);
        }
    }

    void churn(std::uint64_t round) {
        clock.advance(1);
        const std::size_t grow = round % orgs.size();
        orgs[grow]->issueRoa("n" + std::to_string(round), static_cast<Asn>(65000 + round),
                             {{spaces[grow], 24}}, repo, clock.now());
        orgs[(round + 1) % orgs.size()]->refreshManifest(repo, clock.now());
    }
};

/// Draws this round's delivery faults over the points as they are now.
void scheduleFaults(Rng& rng, const Repository& repo, std::uint64_t round, ChaosSource& chaos) {
    const FaultKind kinds[] = {FaultKind::Corrupt, FaultKind::Truncate, FaultKind::InjectJunk,
                               FaultKind::ChainGraft};
    for (const auto& [uri, files] : repo.points()) {
        if (!rng.nextBool(0.6)) continue;
        std::vector<std::string> names;
        std::vector<std::uint64_t> preserved;
        for (const auto& [name, bytes] : files) {
            names.push_back(name);
            try {
                preserved.push_back(
                    Manifest::decode(ByteView(bytes.data(), bytes.size())).number);
            } catch (const std::exception&) {
            }
        }
        Fault f;
        f.kind = kinds[rng.nextBelow(4)];
        f.pointUri = uri;
        f.filename = f.kind == FaultKind::InjectJunk ? "junk.bin" : rng.pick(names);
        f.round = round;
        f.attempts = rng.nextBool(0.5) ? 1u : Fault::kAllAttempts;
        f.param = f.kind == FaultKind::ChainGraft ? rng.pick(preserved) : rng.nextBelow(4096);
        chaos.addFault(std::move(f));
    }
}

TEST(SyncEngineProbe, WarmFreshAndRestoredEnginesReachTheSameVerdicts) {
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
        ChurningWorld w;
        RepositorySource honest(w.repo);
        ChaosSource chaos(honest, FaultPlan{});
        RecordingSource recording(chaos);
        const SyncPolicy policy{.maxAttempts = 2};
        obs::Registry warmRegistry;
        RelyingParty warm("warm", {w.root->cert()}, RpOptions{.ts = 4, .tg = 8},
                          &warmRegistry);
        SyncEngine engine(warm, recording, policy, &warmRegistry);
        Rng rng(seed);

        std::map<FetchOutcome, std::uint64_t> seen;
        for (std::uint64_t round = 0; round < 8; ++round) {
            if (round > 0) {
                w.churn(round);
                scheduleFaults(rng, w.repo, round, chaos);
            }
            const std::map<std::string, rp::PointTelemetry> before = engine.telemetry();
            const Bytes image = warm.serializeState();
            engine.syncRound(w.clock.now());
            const Verdicts expected = verdictsSince(before, engine.telemetry());

            // The same fetches into an engine whose relying party has
            // nothing to compare against, and into one restored from the
            // warm relying party's image. Both carry the warm engine's
            // regression floors.
            for (const bool restored : {false, true}) {
                const std::string where = "seed " + std::to_string(seed) + " round " +
                                          std::to_string(round) +
                                          (restored ? " restored" : " fresh");
                obs::Registry registry;
                std::optional<RelyingParty> rp;
                if (restored) {
                    rp.emplace(RelyingParty::deserializeState(
                        ByteView(image.data(), image.size()), false, &registry));
                } else {
                    rp.emplace("fresh", std::vector<ResourceCert>{w.root->cert()},
                               RpOptions{.ts = 4, .tg = 8}, &registry);
                }
                RecordingSource::Replay replay(recording);
                SyncEngine other(*rp, replay, policy, &registry);
                other.resumeAt(round);
                for (const auto& [uri, pt] : before) {
                    if (pt.sawManifest) other.seedRegressionFloor(uri, pt.highestManifestNumber);
                }
                other.syncRound(w.clock.now());
                EXPECT_EQ(verdictsSince({}, other.telemetry()), expected) << where;
            }
            for (const auto& [uri, v] : expected) {
                for (const auto& [outcome, n] : v.rejected) seen[outcome] += n;
            }
        }
        // The schedule reached the probe's rejecting paths.
        EXPECT_GT(seen[FetchOutcome::LoggedObjectMismatch], 0u) << "seed " << seed;
    }
}

}  // namespace
}  // namespace rpkic
