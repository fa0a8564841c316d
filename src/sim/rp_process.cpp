#include "sim/rp_process.hpp"

#include <algorithm>

namespace rpkic::sim {

using rp::RelyingParty;

RpProcess::RpProcess(RpProcessConfig config, SnapshotSource& source)
    : config_(std::move(config)), source_(&source) {
    if (config_.stateVfs != nullptr) {
        store_.emplace(*config_.stateVfs, config_.stateDir, config_.storeOptions,
                       config_.registry);
        store_->attachRecorder(config_.recorder);
        store_->open();
    }
    rp_.emplace(config_.name, config_.trustAnchors, config_.options, config_.registry);
    startEngine(0);
}

void RpProcess::attachEpochSink(rp::SyncEngine::EpochSink sink) {
    epochSink_ = std::move(sink);
    if (engine_.has_value()) engine_->attachEpochSink(epochSink_);
}

void RpProcess::kill() {
    engine_.reset();
    rp_.reset();
}

rp::RecoveryReport RpProcess::reopenStore() {
    kill();
    return store_->open();
}

std::string RpProcess::restart(std::uint64_t resumeRound) {
    if (store_->latest().has_value()) {
        const ByteView blob = *store_->latest();
        try {
            rp_.emplace(RelyingParty::deserializeState(blob, /*allowLegacy=*/false,
                                                       config_.registry));
        } catch (const std::exception& e) {
            return std::string("recovered payload does not deserialize: ") + e.what();
        }
        // I8: the store must return a state some commit produced — not a
        // near miss.
        if (!std::ranges::equal(rp_->serializeState(), blob)) {
            rp_.reset();
            return "recovered state does not re-serialize byte-identically (round " +
                   std::to_string(store_->latestMeta()) + " payload)";
        }
    } else {
        // Crashed before any commit became durable: a fresh process starts
        // from the trust anchors, exactly like the first one did.
        rp_.emplace(config_.name, config_.trustAnchors, config_.options, config_.registry);
    }
    startEngine(resumeRound);
    return "";
}

void RpProcess::rehome(SnapshotSource& source, std::uint64_t resumeRound) {
    source_ = &source;
    startEngine(resumeRound);
}

void RpProcess::redoThrough(std::uint64_t round, Time now, std::uint64_t& redone) {
    while (engine_->round() <= round) {
        ++redone;
        engine_->syncRound(now);
    }
}

std::string RpProcess::checkCachedOutputs(const std::vector<Roa>& validRoas) {
    if (!(rp_->roaState() == RpkiState::fromRoas(validRoas))) {
        return "cached roaState() differs from the VRPs of validRoas()";
    }
    // A restarted engine that had nothing to redo has no report yet.
    if (!engine_->reports().empty() && engine_->reports().back().validRoas != validRoas.size()) {
        return "SyncReport::validRoas " + std::to_string(engine_->reports().back().validRoas) +
               " differs from validRoas().size() " + std::to_string(validRoas.size());
    }
    return "";
}

void RpProcess::startEngine(std::uint64_t resumeRound) {
    rp_->attachAlarmRecorder(config_.recorder);
    engine_.emplace(*rp_, *source_, config_.policy, config_.registry);
    engine_->attachStore(store());
    engine_->attachEpochSink(epochSink_);
    engine_->resumeAt(resumeRound);
    // The regression floor is engine state, not relying-party state.
    for (const rp::ManifestClaim& claim : rp_->exportManifestClaims()) {
        engine_->seedRegressionFloor(claim.pointUri, claim.number);
    }
}

}  // namespace rpkic::sim
