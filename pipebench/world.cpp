#include "world.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace pipebench {

using namespace rpkic;

namespace {

/// Manifests must outlive every simulated round of a run (one tick each);
/// nothing in the world ever refreshes an unchanged manifest.
constexpr Duration kManifestLifetime = Duration{1} << 40;
constexpr Duration kSyncWindow = 3;
constexpr int kSlots = 256;
constexpr std::uint64_t kMaxPrefixesPerRoa = 4;
/// 2^h signatures per leaf key. Keygen is O(2^h) and dominates set-up; h = 5
/// leaves ~14 churn changes per leaf after the initial publish.
constexpr int kLeafKeyHeight = 5;
/// Trust anchors sign two objects per child at creation and never churn.
constexpr int kAnchorKeyHeight = 7;

std::uint32_t anchorV4(int anchor) {
    return static_cast<std::uint32_t>(20 + anchor) << 24;
}

std::uint64_t anchorV6Hi(int anchor) {
    return 0x20010db800000000ull | (static_cast<std::uint64_t>(anchor) << 16);
}

IpPrefix leafV4(int anchor, int leaf) {
    return IpPrefix::v4(anchorV4(anchor) | (static_cast<std::uint32_t>(leaf) << 16), 16);
}

IpPrefix leafV6(int anchor, int leaf) {
    return IpPrefix::v6(U128{anchorV6Hi(anchor) | (static_cast<std::uint64_t>(leaf) << 8), 0},
                        56);
}

}  // namespace

WorldShape fullShape() {
    return WorldShape{};
}

WorldShape smokeShape() {
    WorldShape s;
    s.trustAnchors = 2;
    s.leavesPerAnchor = 5;
    s.roasPerLeaf = 3;
    s.churnShare = 0.2;
    return s;
}

World::World(std::uint64_t seed, const WorldShape& shape, Time now, SpanRecorder& spans)
    : shape_(shape), rng_(seed) {
    if (shape.leavesPerAnchor > kSlots || shape.trustAnchors > 200) {
        throw std::invalid_argument("world shape exceeds the address plan");
    }
    consent::AuthorityOptions options;
    options.ts = kSyncWindow;
    options.signerHeight = kLeafKeyHeight;
    options.manifestLifetime = kManifestLifetime;
    directory_ = std::make_unique<consent::AuthorityDirectory>(seed, options);

    for (int a = 0; a < shape.trustAnchors; ++a) {
        const ResourceSet resources =
            ResourceSet::ofPrefixes({IpPrefix::v4(anchorV4(a), 8),
                                     IpPrefix::v6(U128{anchorV6Hi(a), 0}, 48)});
        auto s = spans.span("consent.create_authority");
        anchors_.push_back(&directory_->createTrustAnchor("ta" + std::to_string(a), resources,
                                                          repo_, now, kAnchorKeyHeight));
    }
    for (int a = 0; a < shape.trustAnchors; ++a) {
        for (int l = 0; l < shape.leavesPerAnchor; ++l) {
            Leaf leaf;
            leaf.anchor = a;
            leaf.index = l;
            leaf.v4SlotUsed.assign(kSlots, false);
            leaf.v6SlotUsed.assign(kSlots, false);
            const std::string name = "ta" + std::to_string(a) + "-leaf" + std::to_string(l);
            auto s = spans.span("consent.create_authority");
            leaf.authority =
                &directory_->createChild(*anchors_[static_cast<std::size_t>(a)], name,
                                         ResourceSet::ofPrefixes({leafV4(a, l), leafV6(a, l)}),
                                         repo_, now);
            leaves_.push_back(std::move(leaf));
        }
    }
    auto s = spans.span("consent.initial_roas");
    for (Leaf& leaf : leaves_) {
        std::vector<consent::Authority::RoaSpec> specs;
        for (int r = 0; r < shape.roasPerLeaf; ++r) {
            LeafRoa roa = makeRoa(leaf);
            specs.push_back({roa.label, roa.asn, roa.prefixes});
            count(roa, +1);
            leaf.roas.push_back(std::move(roa));
        }
        leaf.authority->issueRoas(std::move(specs), repo_, now);
    }
}

std::vector<ResourceCert> World::trustAnchors() const {
    std::vector<ResourceCert> out;
    for (const consent::Authority* a : anchors_) out.push_back(a->cert());
    return out;
}

std::size_t World::publicationPoints() const {
    return anchors_.size() + leaves_.size();
}

World::LeafRoa World::makeRoa(Leaf& leaf) {
    LeafRoa roa;
    // Prefix counts and the v4/v6 mix cycle instead of being drawn, so every
    // seed builds a world of the same size; the seed only places the ROAs.
    const std::uint64_t n = nextLabel_++;
    roa.label = "r" + std::to_string(n);
    roa.asn = 64512 + static_cast<Asn>(rng_() % 4096);
    const std::uint64_t prefixes = 1 + n % kMaxPrefixesPerRoa;
    for (std::uint64_t p = 0; p < prefixes; ++p) {
        const bool v6 = nextPrefix_++ % 4 == 3;
        std::vector<bool>& used = v6 ? leaf.v6SlotUsed : leaf.v4SlotUsed;
        int slot = static_cast<int>(rng_() % kSlots);
        while (used[static_cast<std::size_t>(slot)]) slot = (slot + 1) % kSlots;
        used[static_cast<std::size_t>(slot)] = true;
        if (v6) {
            const std::uint64_t hi = anchorV6Hi(leaf.anchor) |
                                     (static_cast<std::uint64_t>(leaf.index) << 8) |
                                     static_cast<std::uint64_t>(slot);
            roa.prefixes.push_back({IpPrefix::v6(U128{hi, 0}, 64), 64});
        } else {
            const std::uint32_t addr = anchorV4(leaf.anchor) |
                                       (static_cast<std::uint32_t>(leaf.index) << 16) |
                                       (static_cast<std::uint32_t>(slot) << 8);
            roa.prefixes.push_back(
                {IpPrefix::v4(addr, 24), static_cast<std::uint8_t>(24 + rng_() % 3)});
        }
    }
    return roa;
}

void World::releaseRoa(Leaf& leaf, const LeafRoa& roa) {
    for (const RoaPrefix& p : roa.prefixes) {
        if (p.prefix.family == IpFamily::v6) {
            leaf.v6SlotUsed[static_cast<std::size_t>(p.prefix.addr.hi & 0xff)] = false;
        } else {
            leaf.v4SlotUsed[static_cast<std::size_t>((p.prefix.addr.lo >> 8) & 0xff)] = false;
        }
    }
}

void World::count(const LeafRoa& roa, int delta) {
    for (const RoaPrefix& p : roa.prefixes) {
        const RoaTuple t{p.prefix, p.maxLength, roa.asn};
        if ((expected_[t] += delta) == 0) expected_.erase(t);
    }
}

bool World::eligible(const Leaf& leaf) const {
    return leaf.authority->signaturesRemaining() >= 2;
}

bool World::canChurn() const {
    const auto needed = static_cast<std::size_t>(
        std::max(1.0, std::round(shape_.churnShare * static_cast<double>(leaves_.size()))));
    const auto ok = static_cast<std::size_t>(std::count_if(
        leaves_.begin(), leaves_.end(), [this](const Leaf& l) { return eligible(l); }));
    return ok >= needed;
}

ChurnResult World::churn(Time now) {
    const auto needed = static_cast<std::size_t>(
        std::max(1.0, std::round(shape_.churnShare * static_cast<double>(leaves_.size()))));
    std::vector<std::size_t> pool;
    for (std::size_t i = 0; i < leaves_.size(); ++i) {
        if (eligible(leaves_[i])) pool.push_back(i);
    }
    if (pool.size() < needed) throw std::logic_error("churn called after canChurn() = false");
    ChurnResult result;
    for (std::size_t k = 0; k < needed; ++k) {
        std::swap(pool[k], pool[k + rng_() % (pool.size() - k)]);
        Leaf& leaf = leaves_[pool[k]];
        const std::uint64_t before = leaf.authority->signaturesRemaining();
        const auto held = static_cast<int>(leaf.roas.size());
        const bool add = held == 0 || (held < shape_.roasPerLeaf + 2 && rng_() % 2 == 0);
        if (add) {
            LeafRoa roa = makeRoa(leaf);
            leaf.authority->issueRoa(roa.label, roa.asn, roa.prefixes, repo_, now);
            count(roa, +1);
            leaf.roas.push_back(std::move(roa));
        } else {
            const std::size_t victim = rng_() % leaf.roas.size();
            leaf.authority->deleteRoa(leaf.roas[victim].label, repo_, now);
            count(leaf.roas[victim], -1);
            releaseRoa(leaf, leaf.roas[victim]);
            leaf.roas.erase(leaf.roas.begin() + static_cast<std::ptrdiff_t>(victim));
        }
        result.signatures += before - leaf.authority->signaturesRemaining();
        ++result.pointsChanged;
    }
    return result;
}

RpkiState World::expectedState() const {
    std::vector<RoaTuple> tuples;
    tuples.reserve(expected_.size());
    for (const auto& [t, n] : expected_) tuples.push_back(t);
    return RpkiState(std::move(tuples));
}

}  // namespace pipebench
