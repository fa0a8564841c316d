#include "sim/crash_sweep.hpp"

#include <algorithm>
#include <map>

#include "sim/driver.hpp"
#include "sim/rp_process.hpp"
#include "sim/run_context.hpp"

namespace rpkic::sim {

namespace {

/// One run of the sweep's workload: a seeded world, and a relying-party
/// process committing into a store on a fresh MemVfs. No recorder is
/// attached (the sweep's realized crashes are its workload, not events).
struct Workload {
    RandomScheduleDriver driver;
    RepositorySource honest;
    vfs::MemVfs fs;
    RpProcess proc;

    Workload(const SweepConfig& cfg, obs::Registry* registry)
        : driver(worldConfig(cfg)),
          honest(driver.repo()),
          fs(cfg.seed),
          proc(RpProcessConfig{.name = "sweep",
                               .trustAnchors = driver.trustAnchors(),
                               .options = {.ts = 4, .tg = 8, .checkIntermediateStates = true},
                               .policy = {},
                               .registry = registry,
                               .recorder = nullptr,
                               .stateVfs = &fs,
                               .stateDir = "sweep-state",
                               .storeOptions = {cfg.checkpointEvery, "sweep"}},
               honest) {}

    static DriverConfig worldConfig(const SweepConfig& cfg) {
        DriverConfig driverConfig;
        driverConfig.seed = cfg.seed;
        driverConfig.adversarialProbability = cfg.adversarialProbability;
        driverConfig.authority.manifestLifetime = static_cast<Duration>(cfg.rounds) + 50;
        return driverConfig;
    }
};

/// What the fault-free reference run produced: one committed payload per
/// meta (= completed-round count) plus the final serialized state.
struct Reference {
    std::map<std::uint64_t, Bytes> committed;
    Bytes finalState;
    std::uint64_t opCount = 0;
};

Reference runReference(const SweepConfig& cfg, obs::Registry* registry) {
    Reference ref;
    Workload run(cfg, registry);
    for (std::uint32_t r = 0; r < cfg.rounds; ++r) {
        const Time now = static_cast<Time>(r);
        if (r > 0) run.driver.step(now);
        run.proc.engine().syncRound(now);
        // One commit per round: record what recovery is allowed to return.
        const ByteView committed = *run.proc.store()->latest();
        ref.committed[run.proc.store()->latestMeta()] = Bytes(committed.begin(), committed.end());
    }
    ref.finalState = run.proc.rp().serializeState();
    ref.opCount = run.fs.opCount();
    return ref;
}

/// Reruns the workload with a crash armed at VFS operation k, then
/// recovers and resumes it. Returns what went wrong, or "" when recovery
/// was exact and the resumed run converged to the reference.
std::string rerunCrashedAt(const SweepConfig& cfg, const Reference& ref, std::uint64_t k,
                           obs::FlightRecorder* recorder, SweepResult& result) {
    // Fresh world, fresh filesystem (same seeds: identical behaviour up to
    // the crash), fresh run-local registry (rerun metrics are noise).
    obs::Registry rerunRegistry;
    Workload run(cfg, &rerunRegistry);
    RpProcess& proc = run.proc;
    run.fs.armCrashAt(k);

    bool crashed = false;
    for (std::uint32_t r = 0; r < cfg.rounds; ++r) {
        const Time now = static_cast<Time>(r);
        if (r > 0) run.driver.step(now);
        try {
            proc.engine().syncRound(now);
        } catch (const vfs::CrashInjected&) {
            crashed = true;
            ++result.crashesFired;
            obs::flightRecord(recorder, obs::FlightKind::CrashRealized, "sweep",
                              "crash-point=" + std::to_string(k) + " round=" + std::to_string(r));
            // The "process" died at op k: recover from the surviving bytes.
            rp::RecoveryReport rec;
            try {
                rec = proc.reopenStore();
            } catch (const std::exception& e) {
                return std::string("recovery threw: ") + e.what();
            }
            result.tornBytes += rec.tornBytesDiscarded;

            // (a) pre-or-post: the recovered payload must be byte-identical
            // to the reference commit its meta names, and that meta must
            // bracket the interrupted round.
            const rp::DurableStore& store = *proc.store();
            const std::uint64_t meta = store.latestMeta();
            if (!store.latest().has_value()) {
                if (r != 0) return "no payload recovered after round " + std::to_string(r);
                ++result.recoveredNone;
            } else {
                if (meta != r && meta != r + 1) {
                    return "recovered meta " + std::to_string(meta) +
                           " does not bracket crashed round " + std::to_string(r);
                }
                const auto it = ref.committed.find(meta);
                if (it == ref.committed.end() || !std::ranges::equal(*store.latest(), it->second)) {
                    return "recovered payload for meta " + std::to_string(meta) +
                           " is not the reference commit (mixture state?)";
                }
                if (meta == r + 1) {
                    ++result.recoveredPost;
                } else {
                    ++result.recoveredPre;
                }
            }

            // (b) resume: restart on the recovered state (I8) and rerun the
            // interrupted round if its commit was lost.
            const std::string failure = proc.restart(meta);
            if (!failure.empty()) return failure;
            try {
                proc.redoThrough(r, now, result.roundsResumed);
            } catch (const std::exception& e) {
                return std::string("resume threw: ") + e.what();
            }
        } catch (const std::exception& e) {
            return "exception escaped round " + std::to_string(r) + ": " + e.what();
        }
    }
    if (!crashed) return "armed crash never fired (op space shrank?)";
    // Convergence: the crashed-and-resumed run must end byte-identical to
    // the never-crashed reference.
    if (!(proc.rp().serializeState() == ref.finalState)) {
        return "resumed run diverged from the never-crashed reference";
    }
    return "";
}

}  // namespace

SweepResult runCrashSweep(const SweepConfig& cfg) {
    RC_OBS_SPAN("sweep.run", "sweep");
    SweepResult result;
    RunContext ctx("sweep", cfg.seed, cfg.registry, cfg.recorder);
    const Reference ref = runReference(cfg, ctx.registry());
    result.crashPoints = ref.opCount;
    for (std::uint64_t k = 0; k < ref.opCount; ++k) {
        const std::string failure = rerunCrashedAt(cfg, ref, k, ctx.recorder(), result);
        if (!failure.empty()) {
            ctx.violation("crash point " + std::to_string(k) + ": " + failure,
                          {{"crash-point", std::to_string(k)}});
        }
    }
    result.violations = std::move(ctx.violations);
    result.postmortems = std::move(ctx.postmortems);
    result.passed = result.violations.empty();
    return result;
}

}  // namespace rpkic::sim
