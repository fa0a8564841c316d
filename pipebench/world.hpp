// The benchmark's seeded RPKI world and its ROA churn generator.
//
// A world is a two-level hierarchy of consent-mode authorities publishing
// into one Repository: trust anchors, each with leaf authorities that hold
// multi-prefix ROAs. The churn generator adds and deletes ROAs on a few
// leaves per round through the authorities' public API and keeps its own
// expected VRP set from exactly what it added and deleted — the oracle the
// relying party's output is checked against.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "consent/authority.hpp"
#include "detector/state.hpp"
#include "rpki/repository.hpp"
#include "spans.hpp"

namespace pipebench {

struct WorldShape {
    int trustAnchors = 5;
    int leavesPerAnchor = 40;
    int roasPerLeaf = 8;
    /// Share of leaves that change per churn round.
    double churnShare = 0.05;
};

/// ~200 publication points and ~1,600 ROAs: the size the benchmark runs.
WorldShape fullShape();
/// A few points, for the benchmark's own tests.
WorldShape smokeShape();

struct ChurnResult {
    std::size_t pointsChanged = 0;
    std::uint64_t signatures = 0;  ///< one-time keys the round consumed
};

class World {
public:
    /// Builds and publishes the world at time `now`. Authority creation
    /// (key generation plus first manifest) is recorded as
    /// "consent.create_authority" spans, the initial ROAs as
    /// "consent.initial_roas".
    World(std::uint64_t seed, const WorldShape& shape, rpkic::Time now, SpanRecorder& spans);
    World(const World&) = delete;
    World& operator=(const World&) = delete;

    const rpkic::Repository& repository() const { return repo_; }
    std::vector<rpkic::ResourceCert> trustAnchors() const;
    std::size_t publicationPoints() const;

    /// True while enough leaves can still sign for a full churn round: a
    /// leaf is eligible only with >= 2 signatures left, so a spent key can
    /// never throw KeyExhaustedError mid-run.
    bool canChurn() const;
    /// Changes churnShare of the leaves (at least one): each adds one new
    /// multi-prefix ROA or deletes one of its ROAs, in one manifest update.
    ChurnResult churn(rpkic::Time now);

    /// The VRP set the added-minus-deleted ROAs must validate to.
    rpkic::RpkiState expectedState() const;

private:
    struct LeafRoa {
        std::string label;
        rpkic::Asn asn = 0;
        std::vector<rpkic::RoaPrefix> prefixes;
    };
    struct Leaf {
        rpkic::consent::Authority* authority = nullptr;
        int anchor = 0;
        int index = 0;
        std::vector<LeafRoa> roas;
        std::vector<bool> v4SlotUsed;  ///< /24s inside the leaf's /16
        std::vector<bool> v6SlotUsed;  ///< /64s inside the leaf's /56
    };

    LeafRoa makeRoa(Leaf& leaf);
    void releaseRoa(Leaf& leaf, const LeafRoa& roa);
    void count(const LeafRoa& roa, int delta);
    bool eligible(const Leaf& leaf) const;

    WorldShape shape_;
    std::mt19937_64 rng_;
    rpkic::Repository repo_;
    std::unique_ptr<rpkic::consent::AuthorityDirectory> directory_;
    std::vector<rpkic::consent::Authority*> anchors_;
    std::vector<Leaf> leaves_;
    std::map<rpkic::RoaTuple, int> expected_;  ///< tuple -> ROAs carrying it
    std::uint64_t nextLabel_ = 0;
    std::uint64_t nextPrefix_ = 0;
};

}  // namespace pipebench
