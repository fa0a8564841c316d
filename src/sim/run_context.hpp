// Run-local observability shared by the scenario harnesses (chaos soak,
// crash sweep, fleet, adversary packs): the metrics registry and flight
// recorder (local to the run unless the caller passes its own, so each
// run starts from zero counters and an empty ring and same-seed runs dump
// byte-identical expositions and bundles), the run's flight scope,
// /statusz rows, and the violation sink with its capped postmortem capture.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/flight/postmortem.hpp"
#include "obs/flight/recorder.hpp"
#include "obs/obs.hpp"
#include "obs/serve/introspect.hpp"

namespace rpkic::sim {

class RunContext {
public:
    using Rows = std::vector<std::pair<std::string, std::string>>;

    /// At most this many bundles are captured per run (each snapshots the
    /// full ring + metrics digest; a cascade of violations should not
    /// balloon the result).
    static constexpr std::size_t kMaxBundles = 8;

    /// `registry`/`recorder` nullptr = local to the run; `status` nullptr
    /// disables publish(). `scopeDetail` "" = "run seed=<seed>".
    RunContext(std::string component, std::uint64_t seed, obs::Registry* registry,
               obs::FlightRecorder* recorder, obs::StatusBoard* status = nullptr,
               const std::string& scopeDetail = "");
    RunContext(const RunContext&) = delete;
    RunContext& operator=(const RunContext&) = delete;

    obs::Registry* registry() const { return registry_; }
    obs::FlightRecorder* recorder() const { return recorder_; }

    /// Sets the /statusz row "<component>/seed-<seed>/<key>".
    void publish(const std::string& key, const std::string& value) const;

    /// Records one violation. The bundle (trigger "invariant-fail", label
    /// "seed-<seed>-violation-<n>") carries the context rows seed,
    /// `where`..., violation.
    void violation(const std::string& message, const Rows& where = {});

    /// Captures a postmortem bundle unless kMaxBundles are already held.
    void capture(const std::string& trigger, std::string label, const Rows& context);

    std::vector<std::string> violations;
    std::vector<obs::CapturedBundle> postmortems;

private:
    std::string component_;
    std::uint64_t seed_;
    obs::Registry localRegistry_;
    obs::FlightRecorder localRecorder_;
    obs::Registry* registry_;
    obs::FlightRecorder* recorder_;
    obs::StatusBoard* status_;
    obs::FlightScope runScope_;
};

}  // namespace rpkic::sim
