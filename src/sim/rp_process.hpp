// One relying-party "process" as the scenario harnesses run it: a
// RelyingParty, the SyncEngine feeding it from a SnapshotSource, and
// optionally the DurableStore the engine commits into after every round.
//
// This is the tree's one restart path: the chaos soak, the crash sweep and
// the fleet bring a killed process back through reopenStore() + restart(),
// so recovery is checked the same way everywhere (I8: the recovered
// payload deserializes and re-serializes byte for byte; see
// docs/DURABILITY.md "The restart path").
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "obs/flight/recorder.hpp"
#include "obs/obs.hpp"
#include "rp/durable_store.hpp"
#include "rp/relying_party.hpp"
#include "rp/sync_engine.hpp"
#include "rpki/chaos.hpp"
#include "util/vfs.hpp"

namespace rpkic::sim {

struct RpProcessConfig {
    std::string name;
    std::vector<ResourceCert> trustAnchors;
    rp::RpOptions options;
    rp::SyncPolicy policy;
    obs::Registry* registry = nullptr;
    /// Alarms and store commits are flight-recorded here; nullptr attaches
    /// nothing.
    obs::FlightRecorder* recorder = nullptr;
    /// Backing filesystem of the durable store; nullptr = no store (the
    /// process then cannot be restarted).
    vfs::Vfs* stateVfs = nullptr;
    std::string stateDir;
    rp::StoreOptions storeOptions;
};

class RpProcess {
public:
    /// Starts the process: opens the store (expects a fresh directory),
    /// builds the relying party from the trust anchors and the engine on
    /// `source`.
    RpProcess(RpProcessConfig config, SnapshotSource& source);
    /// The engine holds references into the process: it never moves.
    RpProcess(const RpProcess&) = delete;
    RpProcess& operator=(const RpProcess&) = delete;

    bool alive() const { return engine_.has_value(); }
    rp::RelyingParty& rp() { return *rp_; }
    rp::SyncEngine& engine() { return *engine_; }
    /// nullptr when the process runs without a store.
    rp::DurableStore* store() { return store_.has_value() ? &*store_ : nullptr; }

    /// Attaches `sink` to this and every later incarnation's engine.
    void attachEpochSink(rp::SyncEngine::EpochSink sink);

    /// The process dies: relying party and engine are gone, the store's
    /// files stay as the crash left them.
    void kill();
    /// kill(), then reopens the store (throws what DurableStore::open
    /// throws). Call restart() next.
    rp::RecoveryReport reopenStore();
    /// Rebuilds the relying party from what reopenStore() recovered and a
    /// new engine resuming at `resumeRound`. Returns "" on success;
    /// otherwise why recovery broke I8, and the process stays dead.
    std::string restart(std::uint64_t resumeRound);
    /// Moves the fetch path onto `source` (the relying party and durable
    /// state carry over; only the feed changes).
    void rehome(SnapshotSource& source, std::uint64_t resumeRound);

    /// Reruns sync rounds at `now` until round `round` has completed: after
    /// a restart, the rounds the crash wiped out (zero or one when the
    /// store committed every round). Counts each rerun into `redone`.
    void redoThrough(std::uint64_t round, Time now, std::uint64_t& redone);

    /// Differential oracle over the outputs the relying party derives once
    /// per sync: given a fresh rp().validRoas(), returns "" when roaState()
    /// and the engine's last SyncReport::validRoas agree with it, otherwise
    /// what disagrees.
    std::string checkCachedOutputs(const std::vector<Roa>& validRoas);

private:
    void startEngine(std::uint64_t resumeRound);

    RpProcessConfig config_;
    SnapshotSource* source_;
    std::optional<rp::DurableStore> store_;
    std::optional<rp::RelyingParty> rp_;
    std::optional<rp::SyncEngine> engine_;
    rp::SyncEngine::EpochSink epochSink_;
};

}  // namespace rpkic::sim
