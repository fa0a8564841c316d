#include "sim/run_context.hpp"

namespace rpkic::sim {

namespace {

obs::FlightRecorder* runRecorder(obs::FlightRecorder* given, obs::FlightRecorder& local,
                                 obs::Registry* registry) {
    if (given != nullptr) return given;
    local.attachMetrics(registry);
    return &local;
}

}  // namespace

RunContext::RunContext(std::string component, std::uint64_t seed, obs::Registry* registry,
                       obs::FlightRecorder* recorder, obs::StatusBoard* status,
                       const std::string& scopeDetail)
    : component_(std::move(component)),
      seed_(seed),
      registry_(registry != nullptr ? registry : &localRegistry_),
      recorder_(runRecorder(recorder, localRecorder_, registry_)),
      status_(status),
      runScope_(recorder_, component_,
                scopeDetail.empty() ? "run seed=" + std::to_string(seed_) : scopeDetail) {}

void RunContext::publish(const std::string& key, const std::string& value) const {
    if (status_ == nullptr) return;
    status_->set(component_ + "/seed-" + std::to_string(seed_) + "/" + key, value);
}

void RunContext::violation(const std::string& message, const Rows& where) {
    violations.push_back(message);
    obs::flightRecord(recorder_, obs::FlightKind::InvariantFail, component_, message);
    Rows context{{"seed", std::to_string(seed_)}};
    context.insert(context.end(), where.begin(), where.end());
    context.emplace_back("violation", message);
    capture("invariant-fail",
            "seed-" + std::to_string(seed_) + "-violation-" + std::to_string(violations.size()),
            context);
}

void RunContext::capture(const std::string& trigger, std::string label, const Rows& context) {
    if (postmortems.size() >= kMaxBundles) return;
    obs::CapturedBundle bundle;
    bundle.trigger = trigger;
    bundle.label = std::move(label);
    bundle.bytes = obs::buildPostmortem(*recorder_, registry_, trigger, context);
    postmortems.push_back(std::move(bundle));
}

}  // namespace rpkic::sim
