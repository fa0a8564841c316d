#include "model/trace.hpp"

#include <algorithm>

#include "util/rng.hpp"
#include "util/time.hpp"

namespace rpkic::model {

std::string_view toString(TraceEventKind k) {
    switch (k) {
        case TraceEventKind::RoaAdded: return "roa-added";
        case TraceEventKind::RoaWhacked: return "roa-whacked";
        case TraceEventKind::Renewal: return "renewal";
        case TraceEventKind::ResourceAddition: return "resource-addition";
        case TraceEventKind::BulkRestructure: return "bulk-restructure";
        case TraceEventKind::StaleManifests: return "stale-manifests";
        case TraceEventKind::RcOverwritten: return "rc-overwritten";
    }
    return "?";
}

namespace {

/// A ROA object in the evolving model: one AS, several prefixes, one RIR.
struct RoaObject {
    std::string rir;
    Asn asn = 0;
    std::vector<RoaTuple> tuples;
};

/// Per-RIR synthetic pools (distinct from the case-study prefixes).
struct RirPool {
    const char* name;
    std::uint32_t base;
    std::size_t pairTarget;  // calibrated below
};

}  // namespace

Trace generateTrace(const TraceConfig& config) {
    Rng rng(config.seed);
    Trace trace;

    // --- baseline population ------------------------------------------------
    // LACNIC's share is pinned to the paper's 4,217 whacked pairs; the rest
    // is distributed like Table 2's ROA counts.
    const std::size_t rest = config.basePairs > config.lacnicPairs
                                 ? config.basePairs - config.lacnicPairs
                                 : config.basePairs;
    const RirPool pools[] = {
        {"ripe", 0x51000000u, rest * 1512 / 1769},
        {"lacnic", 0xB9000000u, config.lacnicPairs},
        {"arin", 0x17000000u, rest * 151 / 1769},
        {"apnic", 0x2B000000u, rest * 58 / 1769},
        {"afrinic", 0xC4000000u, rest * 48 / 1769},
    };

    std::vector<RoaObject> objects;
    Asn nextAsn = 20000;
    for (const auto& pool : pools) {
        std::size_t pairs = 0;
        std::uint32_t cursor = pool.base;
        while (pairs < pool.pairTarget) {
            RoaObject obj;
            obj.rir = pool.name;
            obj.asn = nextAsn++;
            const int nPrefixes =
                static_cast<int>(rng.nextInRange(4, 16));  // "one AS, many prefixes"
            for (int p = 0; p < nPrefixes && pairs < pool.pairTarget; ++p) {
                obj.tuples.push_back({IpPrefix::v4(cursor, 24), 24, obj.asn});
                cursor += 1u << 8;
                ++pairs;
            }
            objects.push_back(std::move(obj));
        }
    }

    // Case Study 2's covering ROA exists from the start.
    {
        RoaObject covering;
        covering.rir = "ripe";
        covering.asn = 43782;
        covering.tuples.push_back({IpPrefix::parse("79.139.96.0/19"), 20, 43782});
        objects.push_back(std::move(covering));
        RoaObject victim;
        victim.rir = "ripe";
        victim.asn = 51813;
        victim.tuples.push_back({IpPrefix::parse("79.139.96.0/24"), 24, 51813});
        objects.push_back(std::move(victim));
        // Case Study 3's ROA also predates the window.
        RoaObject ng;
        ng.rir = "afrinic";
        ng.asn = 37688;
        ng.tuples.push_back({IpPrefix::parse("196.6.174.0/23"), 24, 37688});
        objects.push_back(std::move(ng));
    }

    auto snapshotState = [&](bool lacnicDown) {
        std::vector<RoaTuple> tuples;
        for (const auto& obj : objects) {
            if (lacnicDown && obj.rir == "lacnic") continue;
            tuples.insert(tuples.end(), obj.tuples.begin(), obj.tuples.end());
        }
        return RpkiState(std::move(tuples));
    };

    // --- day-by-day evolution -----------------------------------------------
    const std::vector<int> collectorDownDays = {11, 34, 67};
    std::uint32_t growthCursor = 0x70000000u;  // fresh space for added ROAs
    int renewalBudgetPerDay = 3569 / std::max(1, config.days - 1);

    for (int day = 0; day < config.days; ++day) {
        TraceEntry entry;
        entry.day = day;
        entry.date = traceDateString(day);
        entry.collected = std::find(collectorDownDays.begin(), collectorDownDays.end(), day) ==
                          collectorDownDays.end();

        bool lacnicDown = false;
        if (day > 0) {
            // Routine growth: a few new ROAs per day.
            const int newRoas = static_cast<int>(rng.nextInRange(1, 4));
            for (int i = 0; i < newRoas; ++i) {
                RoaObject obj;
                obj.rir = "ripe";
                obj.asn = nextAsn++;
                const int nPrefixes = static_cast<int>(rng.nextInRange(2, 10));
                for (int p = 0; p < nPrefixes; ++p) {
                    obj.tuples.push_back({IpPrefix::v4(growthCursor, 24), 24, obj.asn});
                    growthCursor += 1u << 8;
                }
                entry.events.push_back({TraceEventKind::RoaAdded,
                                        "new ROA for AS" + std::to_string(obj.asn),
                                        obj.tuples.size()});
                objects.push_back(std::move(obj));
            }

            // Routine renewals (objects reissued unchanged): ~80 % of all
            // modify/revoke events in the paper's trace.
            const auto renewals = static_cast<std::size_t>(renewalBudgetPerDay);
            trace.stats.renewals += renewals;
            entry.events.push_back({TraceEventKind::Renewal, "routine renewals", renewals});

            // Resource additions / serial-only changes: the ~15 % of the
            // paper's 4,443 modify/revoke events that need no consent and
            // are not renewals.
            const auto additions = rng.nextInRange(5, 9);
            trace.stats.resourceAdditions += additions;
            entry.events.push_back(
                {TraceEventKind::ResourceAddition, "RCs broadened / serials bumped",
                 static_cast<std::size_t>(additions)});

            // RC revocations/narrowings that would need .dead consent but do
            // not change the ROA tuple set (<= 5 % of events, §5.7).
            const auto quietDead = rng.nextInRange(1, 3);
            trace.stats.needingDead += quietDead;

            // Occasional whacking of a single multi-prefix ROA (the paper:
            // "most of the incidents in Figure 5 correspond to the whacking
            // of a single ROA containing multiple prefixes"). LACNIC is
            // left alone, so LACNIC's calibrated Dec-20 dip stays exact;
            // the day as a whole may not be, since for some seeds (14 and
            // 17, for example) a whack elsewhere also lands on Dec 20.
            if (rng.nextBool(0.22) && objects.size() > 10) {
                // LACNIC objects are pinned to the calibrated Dec-20 dip and
                // the case-study ROAs to their scripted dates.
                const auto protectedObject = [](const RoaObject& o) {
                    return o.rir == "lacnic" || o.asn == 51813 || o.asn == 43782 ||
                           o.asn == 37688;
                };
                std::size_t idx = static_cast<std::size_t>(rng.nextBelow(objects.size()));
                for (int tries = 0; tries < 8 && protectedObject(objects[idx]); ++tries) {
                    idx = static_cast<std::size_t>(rng.nextBelow(objects.size()));
                }
                if (!protectedObject(objects[idx])) {
                    RoaObject whacked = objects[idx];
                    objects.erase(objects.begin() + static_cast<long>(idx));
                    trace.stats.needingDead += 1;
                    entry.events.push_back(
                        {TraceEventKind::RoaWhacked,
                         "ROA for AS" + std::to_string(whacked.asn) + " whacked",
                         whacked.tuples.size()});
                    // Sometimes a new ROA reissues the prefixes to another AS.
                    if (rng.nextBool(0.5)) {
                        RoaObject successor = whacked;
                        successor.asn = nextAsn++;
                        for (auto& t : successor.tuples) t.asn = successor.asn;
                        objects.push_back(std::move(successor));
                        entry.events.push_back({TraceEventKind::RoaAdded,
                                                "prefixes reissued to another AS", 1});
                    }
                }
            }
        }

        // Landmark events.
        switch (day) {
            case 24: {  // mid-November: RIPE repository restructuring
                trace.stats.bulkRestructured += 3336;
                entry.events.push_back({TraceEventKind::BulkRestructure,
                                        "RIPE reissues objects with new parent/child pointers "
                                        "and keys",
                                        3336});
                break;
            }
            case 51: {  // Dec 13: Case Study 1
                RoaObject obj;
                obj.rir = "arin";
                obj.asn = 6128;
                obj.tuples.push_back({IpPrefix::parse("173.251.0.0/17"), 24, 6128});
                objects.push_back(std::move(obj));
                entry.events.push_back({TraceEventKind::RoaAdded,
                                        "Case Study 1: ROA (173.251.0.0/17-24, AS 6128) added",
                                        1});
                break;
            }
            case 57: {  // Dec 19: Case Study 2
                const auto it = std::find_if(objects.begin(), objects.end(),
                                             [](const RoaObject& o) { return o.asn == 51813; });
                if (it != objects.end()) objects.erase(it);
                trace.stats.needingDead += 1;
                entry.events.push_back({TraceEventKind::RoaWhacked,
                                        "Case Study 2: ROA (79.139.96.0/24, AS 51813) deleted",
                                        1});
                break;
            }
            case 58: {  // Dec 20: Case Study 4
                lacnicDown = true;
                entry.events.push_back({TraceEventKind::StaleManifests,
                                        "Case Study 4: all LACNIC manifests expired", 4});
                break;
            }
            case 74: {  // Jan 5: Case Study 3
                const auto it = std::find_if(objects.begin(), objects.end(),
                                             [](const RoaObject& o) { return o.asn == 37688; });
                if (it != objects.end()) objects.erase(it);
                trace.stats.needingDead += 1;
                entry.events.push_back(
                    {TraceEventKind::RcOverwritten,
                     "Case Study 3: parent RC overwritten with an IPv6 prefix; ROA "
                     "(196.6.174.0/23, AS 37688) whacked",
                     1});
                break;
            }
            case 75: {  // Jan 6: the overwritten RC issues IPv6 ROAs
                RoaObject obj;
                obj.rir = "afrinic";
                obj.asn = 37600;
                obj.tuples.push_back({IpPrefix::parse("2c0f:f668::/32"), 32, 37600});
                objects.push_back(std::move(obj));
                entry.events.push_back({TraceEventKind::RoaAdded,
                                        "IPv6 ROAs issued to AS 37600 (Mauritius)", 1});
                break;
            }
            default: break;
        }

        entry.state = snapshotState(lacnicDown);
        trace.entries.push_back(std::move(entry));
    }
    return trace;
}

}  // namespace rpkic::model
