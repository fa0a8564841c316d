// rpkic-soak: chaos soak harness over the relying-party pipeline.
//
// Runs N seeded fault schedules (sim/chaos_soak.hpp) against the random
// authority-hierarchy driver, checking robustness invariants I1-I7 every
// round against a fault-free twin relying party. Any failing run prints
// its serialized FaultPlan (and writes it to soak-fail-seed<N>.plan);
// replaying the plan reproduces the identical outcome:
//
//   rpkic-soak --seeds 200                     # the full gauntlet
//   rpkic-soak --smoke                         # CI: 32 seeds, short runs
//   rpkic-soak --plan soak-fail-seed7.plan     # bit-identical replay
//   rpkic-soak --seeds 20 --compare            # retry budget 2 vs 0 table
//
// Options:
// Durability modes (PR 5; see docs/DURABILITY.md):
//
//   rpkic-soak --seeds 64 --crash-every 3      # kill/restart gauntlet
//   rpkic-soak --crash-sweep --seeds 8         # exhaustive per-op crash sweep
//   rpkic-soak --crash-every 5 --state-dir st  # WAL+checkpoints on real disk
//
//   --seeds N          number of seeds to sweep (default 20)
//   --seed-base B      first seed (default 1)
//   --rounds N         sync rounds per run (default 40)
//   --fault-rate X     per-point per-round fault probability (default 0.35)
//   --retry-budget N   retries after the first attempt (default 2)
//   --adversarial X    driver misbehaviour probability (default 0.15)
//   --crash-every N    durable-store mode: commit the relying party's
//                      state every round and kill/restart the "process"
//                      every N rounds, crashing mid-commit (invariants
//                      I8/I9; plans carry the cadence for --plan replay)
//   --state-dir DIR    put the durable store's WAL + checkpoints on the
//                      real filesystem under DIR/seed<N> instead of the
//                      crash-injectable in-memory backend (kills become
//                      round-boundary restarts; dirs are wiped per run)
//   --crash-sweep      run the exhaustive crash-point sweep instead of
//                      the soak: one rerun per VFS operation per seed,
//                      proving pre-or-post recovery plus convergence
//   --smoke            shorthand for --seeds 32 --rounds 25
//   --compare          also run every seed with retry budget 0 and print
//                      the degradation table (weakened run must be worse)
//   --pack NAME[,..]   attack-zoo mode (docs/CHAOS.md "Attack zoo"): run
//                      the named adversary scenario packs ("all" = every
//                      pack) across the seed sweep and diff each run's
//                      realized alarms, rejections, quarantine state, and
//                      fleet attribution against the pack's expected-alarm
//                      oracle (invariants I12/I13). Any miss OR any
//                      spurious alarm fails the run: failing runs write
//                      pack-fail-<pack>-seed<N>.plan (replayable with
//                      --plan) and their postmortems land in --flight-out
//   --disable-detection
//                      attack-zoo test hook: turn off the relying party's
//                      intermediate-state checks and the periodic global
//                      consistency check. A pack whose attack those paths
//                      catch must then FAIL its oracle (proves the oracle
//                      has teeth)
//   --plan FILE        replay one serialized plan instead of sweeping; a
//                      plan carrying pack= replays that pack run
//   --quiet            only the summary line and failures
//   --scoreboard       per-round table: delivered/failed/retries/absorbed/
//                      alarms/valid-ROAs for every round of every run
//   --metrics-out FILE write the Prometheus text exposition of all
//                      rc_* metrics after the sweep (deterministic: the
//                      run is switched to the logical clock, so two runs
//                      of the same seed produce byte-identical files)
//   --trace-out FILE   write a Chrome trace-event JSON of the run's spans
//                      (load in Perfetto / chrome://tracing)
//   --fleet N          fleet-consensus mode (docs/FLEET.md): run N relying
//                      parties per seed over divergent repository views,
//                      reduce their per-epoch outputs by quorum vote, and
//                      check invariants I10/I11 (--rounds sets the epoch
//                      count; per-member rc_rp_*/rc_sync_*/rc_store_* and
//                      aggregate rc_fleet_* metrics land in --metrics-out)
//   --quorum Q         votes required for a consensus output (default
//                      majority: floor(N/2)+1)
//   --faulty-set SPEC  comma-separated member faults, each
//                      member:kind[:from[:len]] with kind crash|stall|
//                      mirror, e.g. "1:crash:5:6,3:mirror:4"
//   --transcript-out F write every seed's consensus transcript (canonical
//                      text, byte-identical at every --threads value)
//   --serve ADDR:PORT  serve the live introspection endpoints (/metrics,
//                      /healthz, /statusz, /flightz) while the run is in
//                      flight; port 0 picks an ephemeral port and the
//                      bound address is printed. Enables the global
//                      flight recorder and publishes run progress rows
//                      to /statusz.
//   --serve-hold       keep serving after the run completes, until
//                      SIGINT/SIGTERM (CI scrapes the final state, then
//                      kills the process; also holds --rtr)
//   --rtr ADDR:PORT    serve every committed round as an RTR-style epoch
//                      (RFC 8210 v1 framing; docs/SERVING.md) while the
//                      run is in flight: caches connect, Reset Query gets
//                      the full VRP snapshot, Serial Query an incremental
//                      delta, and each new epoch fans out a Serial
//                      Notify. Port 0 picks an ephemeral port. With
//                      multiple seeds the epochs publish in completion
//                      order into one shared store.
//   --rtr-dump FILE    write the canonical epoch dump (one line per
//                      epoch: serial, tuple count, announce/withdraw
//                      counts, SHA-256 of snapshot and delta payloads)
//                      for all seeds in seed order — byte-identical at
//                      every --threads value; CI diffs it across thread
//                      counts
//   --flight-out DIR   write postmortem bundles — invariant failures,
//                      realized crashes, fatal signals — under DIR as
//                      <label>.postmortem (see docs/OBSERVABILITY.md)
//   --force-invariant-fail
//                      append one synthetic invariant violation to every
//                      soak run so the postmortem-capture path fires
//                      deterministically (test/CI hook; the run exits 2)
//   --log-level LEVEL  structured-log threshold (trace|debug|info|warn|
//                      error|off; default warn, also settable via RC_LOG)
//   --threads N        worker pool size for the seed sweep (0 = all
//                      hardware threads); overrides the RC_THREADS env
//                      var. Per-seed results are bit-identical at every
//                      thread count and always print in seed order, but
//                      --metrics-out/--trace-out dumps are only byte-
//                      stable at 1 thread (interleaving reorders the
//                      logical clock).
//
// Exit status: 0 = all invariants held, 2 = violations, 1 = usage/IO error.
#include <atomic>
#include <cctype>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <filesystem>

#include "adversary/runner.hpp"
#include "fleet/fleet.hpp"
#include "obs/flight/postmortem.hpp"
#include "obs/flight/recorder.hpp"
#include "obs/obs.hpp"
#include "obs/parallel_metrics.hpp"
#include "obs/serve/introspect.hpp"
#include "serve/rtr.hpp"
#include "sim/chaos_soak.hpp"
#include "sim/crash_sweep.hpp"
#include "util/errors.hpp"
#include "util/kvline.hpp"
#include "util/parallel.hpp"
#include "util/vfs.hpp"

using namespace rpkic;
using namespace rpkic::sim;

namespace {

void printResult(const SoakResult& r, bool quiet) {
    const SoakStats& s = r.stats;
    if (!quiet) {
        std::printf(
            "seed %-6llu %s  faults=%llu hits=%llu attempts=%llu retries=%llu "
            "absorbed=%llu failed-rounds=%llu worst-streak=%u recoveries=%llu "
            "mean-recovery=%.2f alarms=%llu (accountable=%llu, twin=%llu) "
            "roas=%zu/%zu\n",
            static_cast<unsigned long long>(r.seed), r.passed ? "ok  " : "FAIL",
            static_cast<unsigned long long>(s.faultsScheduled),
            static_cast<unsigned long long>(s.faultApplications),
            static_cast<unsigned long long>(s.attempts),
            static_cast<unsigned long long>(s.retries),
            static_cast<unsigned long long>(s.faultsAbsorbed),
            static_cast<unsigned long long>(s.pointRoundsFailed), s.maxStaleStreak,
            static_cast<unsigned long long>(s.recoveries), s.meanRecoveryRounds,
            static_cast<unsigned long long>(s.alarms),
            static_cast<unsigned long long>(s.accountableAlarms),
            static_cast<unsigned long long>(s.twinAlarms), s.validRoasFinal,
            s.twinValidRoasFinal);
        if (r.plan.crashEvery > 0) {
            std::printf(
                "  durability seed %-6llu crashes=%llu recoveries=%llu commits=%llu "
                "torn-bytes=%llu rounds-redone=%llu\n",
                static_cast<unsigned long long>(r.seed),
                static_cast<unsigned long long>(s.crashes),
                static_cast<unsigned long long>(s.storeRecoveries),
                static_cast<unsigned long long>(s.storeCommits),
                static_cast<unsigned long long>(s.storeTornBytes),
                static_cast<unsigned long long>(s.roundsRedone));
        }
    }
    if (!r.passed) {
        std::printf("seed %llu VIOLATIONS:\n", static_cast<unsigned long long>(r.seed));
        for (const std::string& v : r.violations) std::printf("  %s\n", v.c_str());
        const std::string planFile =
            "soak-fail-seed" + std::to_string(r.seed) + ".plan";
        const std::string text = r.plan.serialize();
        std::ofstream out(planFile, std::ios::binary);
        if (out) {
            out << text;
            std::printf("  plan written to %s — replay with: rpkic-soak --plan %s\n",
                        planFile.c_str(), planFile.c_str());
        } else {
            std::printf("  (could not write %s; plan follows)\n%s", planFile.c_str(),
                        text.c_str());
        }
    }
}

void printScoreboard(const SoakResult& r) {
    std::printf("  round | listed deliv fail quar | attempts retries absorbed | alarms roas\n");
    for (const auto& round : r.rounds) {
        std::printf("  %5llu | %6zu %5zu %4zu %4zu | %8llu %7llu %8llu | %6zu %4zu\n",
                    static_cast<unsigned long long>(round.round), round.pointsListed,
                    round.pointsDelivered, round.pointsFailed, round.pointsQuarantined,
                    static_cast<unsigned long long>(round.attempts),
                    static_cast<unsigned long long>(round.retries),
                    static_cast<unsigned long long>(round.faultsAbsorbed), round.alarmsRaised,
                    round.validRoas);
    }
}

void printPackResult(const adversary::PackRunResult& r, bool quiet) {
    if (!quiet || !r.passed) {
        std::string verdicts;
        for (const auto cls : r.realized.verdictClasses) {
            if (!verdicts.empty()) verdicts += ",";
            verdicts += std::string(fleet::toString(cls));
        }
        if (verdicts.empty()) verdicts = "-";
        std::printf(
            "pack %-18s seed %-4llu %s  alarms=%zu faults=%zu hits=%llu overlays=%llu "
            "quarantined=%s verdicts=%s\n",
            r.pack.c_str(), static_cast<unsigned long long>(r.seed),
            r.passed ? "ok  " : "FAIL", r.realized.alarms.size(), r.plan.faults.size(),
            static_cast<unsigned long long>(r.faultApplications),
            static_cast<unsigned long long>(r.overlayApplications),
            r.realized.quarantined ? "yes" : "no", verdicts.c_str());
    }
    if (!r.passed) {
        std::printf("pack %s seed %llu ORACLE DIFF:\n", r.pack.c_str(),
                    static_cast<unsigned long long>(r.seed));
        for (const std::string& m : r.diff.missing) std::printf("  missing:  %s\n", m.c_str());
        for (const std::string& s : r.diff.spurious) std::printf("  spurious: %s\n", s.c_str());
        const std::string planFile =
            "pack-fail-" + r.pack + "-seed" + std::to_string(r.seed) + ".plan";
        std::ofstream out(planFile, std::ios::binary);
        if (out) {
            out << r.plan.serialize();
            std::printf("  plan written to %s — replay with: rpkic-soak --plan %s\n",
                        planFile.c_str(), planFile.c_str());
        }
    }
}

bool writeFileOrComplain(const std::string& path, const std::string& content) {
    std::ofstream out(path, std::ios::binary);
    if (!out) {
        std::fprintf(stderr, "rpkic-soak: cannot write %s\n", path.c_str());
        return false;
    }
    out << content;
    return true;
}

// --serve-hold exits on SIGINT/SIGTERM (fatal signals go through the
// flight handler instead).
std::atomic<bool> gStopServing{false};

extern "C" void onStopSignal(int) { gStopServing.store(true); }

void printUsage() {
    std::fprintf(stderr,
                 "usage: rpkic-soak [--seeds N] [--seed-base B] [--rounds N]\n"
                 "                  [--fault-rate X] [--retry-budget N] "
                 "[--adversarial X]\n"
                 "                  [--crash-every N] [--state-dir DIR] "
                 "[--crash-sweep]\n"
                 "                  [--fleet N] [--quorum Q] [--faulty-set SPEC]\n"
                 "                  [--transcript-out FILE]\n"
                 "                  [--pack NAME[,..]] [--disable-detection]\n"
                 "                  [--smoke] [--compare] [--plan FILE] [--quiet]\n"
                 "                  [--scoreboard] [--metrics-out FILE] "
                 "[--trace-out FILE]\n"
                 "                  [--serve ADDR:PORT] [--serve-hold] "
                 "[--flight-out DIR]\n"
                 "                  [--rtr ADDR:PORT] [--rtr-dump FILE]\n"
                 "                  [--force-invariant-fail]\n"
                 "                  [--log-level LEVEL] [--threads N]\n");
}

/// A bad numeric flag value is a usage error (exit 1), never a silent 0
/// or a wrapped count. Integers go through the line codec's parser.
[[noreturn]] void badFlag(const std::string& why) {
    std::fprintf(stderr, "rpkic-soak: %s\n", why.c_str());
    printUsage();
    std::exit(1);
}

std::uint64_t uintFlag(const char* flag, const char* text, std::uint64_t max = UINT64_MAX) {
    try {
        return kv::parseU64(text, flag, max);
    } catch (const ParseError& e) {
        badFlag(e.what());
    }
}

std::uint32_t u32Flag(const char* flag, const char* text) {
    return static_cast<std::uint32_t>(uintFlag(flag, text, UINT32_MAX));
}

/// Rates are a whole-string decimal in [0, 1].
double rateFlag(const char* flag, const char* text) {
    char* end = nullptr;
    const double value = std::strtod(text, &end);
    const bool digitFirst = std::isdigit(static_cast<unsigned char>(text[0])) || text[0] == '.';
    if (!digitFirst || *end != '\0' || !(value >= 0.0 && value <= 1.0)) {
        badFlag(std::string(flag) + " wants a rate in [0, 1], got '" + text + "'");
    }
    return value;
}

}  // namespace

int main(int argc, char** argv) {
    SoakConfig cfg;
    std::uint64_t seeds = 20;
    std::uint64_t seedBase = 1;
    bool compare = false;
    bool quiet = false;
    bool scoreboard = false;
    bool crashSweep = false;
    std::uint32_t fleetSize = 0;
    std::uint32_t fleetQuorum = 0;  // 0 = majority of --fleet
    std::string faultySet;
    std::string transcriptOut;
    std::string stateDir;
    std::string planPath;
    std::string packSpec;
    bool disableDetection = false;
    std::string metricsOut;
    std::string traceOut;
    std::string threadSpec;
    std::string serveAddr;
    bool serveHold = false;
    std::string flightOut;
    std::string rtrAddr;
    std::string rtrDump;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&](const char* what) -> const char* {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "rpkic-soak: %s requires a value\n", what);
                std::exit(1);
            }
            return argv[++i];
        };
        if (arg == "--seeds") {
            seeds = uintFlag("--seeds", next("--seeds"));
        } else if (arg == "--seed-base") {
            seedBase = uintFlag("--seed-base", next("--seed-base"));
        } else if (arg == "--rounds") {
            cfg.rounds = u32Flag("--rounds", next("--rounds"));
        } else if (arg == "--fault-rate") {
            cfg.faultRate = rateFlag("--fault-rate", next("--fault-rate"));
        } else if (arg == "--retry-budget") {
            cfg.retryBudget = u32Flag("--retry-budget", next("--retry-budget"));
        } else if (arg == "--adversarial") {
            cfg.adversarialProbability = rateFlag("--adversarial", next("--adversarial"));
        } else if (arg == "--crash-every") {
            cfg.crashEvery = u32Flag("--crash-every", next("--crash-every"));
        } else if (arg == "--state-dir") {
            stateDir = next("--state-dir");
        } else if (arg == "--crash-sweep") {
            crashSweep = true;
        } else if (arg == "--fleet") {
            fleetSize = u32Flag("--fleet", next("--fleet"));
        } else if (arg == "--quorum") {
            fleetQuorum = u32Flag("--quorum", next("--quorum"));
            if (fleetQuorum == 0) {
                // 0 is also the internal "use the default" sentinel; an
                // explicit 0 must not silently become a majority quorum.
                std::fprintf(stderr, "rpkic-soak: --quorum must be >= 1\n");
                return 1;
            }
        } else if (arg == "--faulty-set") {
            faultySet = next("--faulty-set");
        } else if (arg == "--transcript-out") {
            transcriptOut = next("--transcript-out");
        } else if (arg == "--smoke") {
            seeds = 32;
            cfg.rounds = 25;
        } else if (arg == "--compare") {
            compare = true;
        } else if (arg == "--pack") {
            packSpec = next("--pack");
        } else if (arg == "--disable-detection") {
            disableDetection = true;
        } else if (arg == "--plan") {
            planPath = next("--plan");
        } else if (arg == "--quiet") {
            quiet = true;
        } else if (arg == "--scoreboard") {
            scoreboard = true;
        } else if (arg == "--metrics-out") {
            metricsOut = next("--metrics-out");
        } else if (arg == "--trace-out") {
            traceOut = next("--trace-out");
        } else if (arg == "--serve") {
            serveAddr = next("--serve");
        } else if (arg == "--serve-hold") {
            serveHold = true;
        } else if (arg == "--rtr") {
            rtrAddr = next("--rtr");
        } else if (arg == "--rtr-dump") {
            rtrDump = next("--rtr-dump");
        } else if (arg == "--flight-out") {
            flightOut = next("--flight-out");
        } else if (arg == "--force-invariant-fail") {
            cfg.forceInvariantFail = true;
        } else if (arg == "--log-level") {
            obs::Logger::global().setLevel(obs::logLevelFromString(next("--log-level")));
        } else if (arg == "--threads") {
            threadSpec = next("--threads");
        } else {
            printUsage();
            return 1;
        }
    }

    try {
        const std::size_t threads = threadSpec.empty()
                                        ? rc::parallel::defaultThreadCount()
                                        : rc::parallel::parseThreadSpec(threadSpec);
        rc::parallel::configureDefaultPool(threads, &obs::parallelMetricsObserver());
    } catch (const Error& e) {
        std::fprintf(stderr, "rpkic-soak: %s\n", e.what());
        return 1;
    }

    // Exported telemetry must be reproducible: the same seed must dump the
    // same bytes. Switch the whole process onto the deterministic logical
    // clock before anything records a timestamp.
    static obs::LogicalTimeSource logicalClock;
    if (!metricsOut.empty() || !traceOut.empty()) {
        obs::setTimeSource(&logicalClock);
    }
    if (!traceOut.empty()) obs::Tracer::global().setEnabled(true);

    // With --metrics-out or --serve the soak records into the process-wide
    // registry so alarms, sync telemetry, authority and detector counters
    // all land in the same exposition (a nullptr registry would give each
    // run a private registry that dies with it, and /metrics would show
    // nothing).
    obs::Registry* exportRegistry = (metricsOut.empty() && serveAddr.empty() && rtrAddr.empty())
                                        ? nullptr
                                        : &obs::Registry::global();
    cfg.registry = exportRegistry;

    // Live introspection: enable the global flight recorder (hook sites
    // tee into it), install the fatal-signal postmortem path, publish run
    // progress to the global status board, and start the HTTP server.
    if (!serveAddr.empty() || !flightOut.empty()) {
        obs::FlightRecorder::global().attachMetrics(&obs::Registry::global());
        obs::FlightRecorder::global().setEnabled(true);
    }
    if (!flightOut.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(flightOut, ec);
        if (ec) {
            std::fprintf(stderr, "rpkic-soak: cannot create %s: %s\n", flightOut.c_str(),
                         ec.message().c_str());
            return 1;
        }
        obs::installFlightSignalHandler(flightOut + "/fatal-signal.postmortem");
    }
    std::optional<obs::IntrospectionServer> server;
    if (!serveAddr.empty()) {
        cfg.status = &obs::StatusBoard::global();
        server.emplace();
        std::string error;
        if (!server->start(serveAddr, &error)) {
            std::fprintf(stderr, "rpkic-soak: --serve %s: %s\n", serveAddr.c_str(),
                         error.c_str());
            return 1;
        }
        std::printf("introspection server on http://%s/ (/metrics /healthz /statusz /flightz)\n",
                    server->boundAddress().c_str());
        std::fflush(stdout);
        std::signal(SIGINT, onStopSignal);
        std::signal(SIGTERM, onStopSignal);
    }

    // Live RTR serving plane: one shared epoch store; every seed's
    // committed rounds publish into it (completion order across parallel
    // seeds) and each publication fans a Serial Notify out to connected
    // caches. The byte-determinism artifact is --rtr-dump, which is
    // captured per seed and written in seed order, independent of the
    // live store.
    std::optional<serve::EpochStore> rtrStore;
    std::optional<serve::RtrServer> rtrServer;
    if (!rtrAddr.empty()) {
        serve::EpochStore::Options storeOptions;
        storeOptions.registry = exportRegistry;
        rtrStore.emplace(storeOptions);
        serve::RtrServer::Options rtrOptions;
        rtrOptions.socket.registry = exportRegistry;
        rtrOptions.core.registry = exportRegistry;
        rtrServer.emplace(*rtrStore, rtrOptions);
        std::string error;
        if (!rtrServer->start(rtrAddr, &error)) {
            std::fprintf(stderr, "rpkic-soak: --rtr %s: %s\n", rtrAddr.c_str(), error.c_str());
            return 1;
        }
        std::printf("rtr server on %s (RFC 8210 v1)\n", rtrServer->boundAddress().c_str());
        std::fflush(stdout);
        std::signal(SIGINT, onStopSignal);
        std::signal(SIGTERM, onStopSignal);
        cfg.rtrStore = &*rtrStore;
        cfg.onEpochPublished = [&rtrServer] { rtrServer->notify(); };
    }
    cfg.captureEpochs = !rtrDump.empty();

    // Where captured postmortem bundles land (--flight-out).
    const auto writePostmortems = [&](const std::vector<obs::CapturedBundle>& bundles) {
        if (flightOut.empty()) return;
        for (const obs::CapturedBundle& b : bundles) {
            const std::string path = flightOut + "/" + b.label + ".postmortem";
            if (writeFileOrComplain(path, b.bytes) && !quiet) {
                std::printf("postmortem (%s) written to %s\n", b.trigger.c_str(), path.c_str());
            }
        }
    };

    // Every exit path after server start funnels through here so
    // --serve-hold can keep the endpoints alive for a scraper.
    const auto finish = [&](int rc) -> int {
        if ((server.has_value() || rtrServer.has_value()) && serveHold) {
            std::printf("rpkic-soak: run complete; holding %s%s%s "
                        "(SIGINT/SIGTERM to exit)\n",
                        server.has_value()
                            ? ("introspection server on " + server->boundAddress()).c_str()
                            : "",
                        server.has_value() && rtrServer.has_value() ? " and " : "",
                        rtrServer.has_value()
                            ? ("rtr server on " + rtrServer->boundAddress()).c_str()
                            : "");
            std::fflush(stdout);
            while (!gStopServing.load()) {
                std::this_thread::sleep_for(std::chrono::milliseconds(100));
            }
        }
        if (rtrServer.has_value()) rtrServer->stop();
        if (server.has_value()) server->stop();
        return rc;
    };

    // A completed run: write --metrics-out/--trace-out, then exit 0 if every
    // run passed, 2 on violations, 1 if an export could not be written.
    const auto finishRun = [&](bool passed) -> int {
        bool ok = true;
        if (!metricsOut.empty()) {
            ok = writeFileOrComplain(metricsOut, obs::Registry::global().renderPrometheus()) && ok;
            if (ok && !quiet) std::printf("metrics written to %s\n", metricsOut.c_str());
        }
        if (!traceOut.empty()) {
            ok = writeFileOrComplain(traceOut, obs::Tracer::global().renderChromeTrace()) && ok;
            if (ok && !quiet) std::printf("trace written to %s\n", traceOut.c_str());
        }
        return finish(!ok ? 1 : passed ? 0 : 2);
    };

    if (fleetSize > 0) {
        // Fleet-consensus mode: seeds run sequentially — each run fans its
        // member syncs out over the worker pool instead, and sequential
        // seeds keep --metrics-out/--trace-out byte-stable.
        fleet::FleetConfig fleetCfg;
        fleetCfg.members = fleetSize;
        fleetCfg.quorum = fleetQuorum != 0 ? fleetQuorum : fleetSize / 2 + 1;
        fleetCfg.epochs = cfg.rounds;
        fleetCfg.retryBudget = cfg.retryBudget;
        fleetCfg.registry = exportRegistry;
        fleetCfg.status = cfg.status;
        try {
            fleetCfg.faulty = fleet::MemberFaultSpec::parseSet(faultySet);
        } catch (const Error& e) {
            std::fprintf(stderr, "rpkic-soak: --faulty-set: %s\n", e.what());
            return finish(1);
        }

        std::string transcripts;
        std::uint64_t failures = 0;
        for (std::uint64_t s = 0; s < seeds; ++s) {
            fleet::FleetConfig runCfg = fleetCfg;
            runCfg.seed = seedBase + s;
            fleet::FleetResult r;
            try {
                r = fleet::runFleet(runCfg);
            } catch (const Error& e) {
                std::fprintf(stderr, "rpkic-soak: fleet seed %llu: %s\n",
                             static_cast<unsigned long long>(runCfg.seed), e.what());
                return finish(1);
            }
            writePostmortems(r.postmortems);
            const fleet::FleetStats& fs = r.stats;
            if (!quiet || !r.passed) {
                std::printf(
                    "fleet seed %-6llu %s  epochs=%llu outputs=%llu unanimous=%llu "
                    "no-quorum=%llu votes=%llu rejected=%llu verdicts=c%llu/s%llu/m%llu "
                    "crashes=%llu restarts=%llu roas=%zu/%zu\n",
                    static_cast<unsigned long long>(r.seed), r.passed ? "ok  " : "FAIL",
                    static_cast<unsigned long long>(fs.epochs),
                    static_cast<unsigned long long>(fs.outputEpochs),
                    static_cast<unsigned long long>(fs.unanimousEpochs),
                    static_cast<unsigned long long>(fs.noQuorumEpochs),
                    static_cast<unsigned long long>(fs.votesCast),
                    static_cast<unsigned long long>(fs.votesRejected),
                    static_cast<unsigned long long>(fs.verdictsCrashed),
                    static_cast<unsigned long long>(fs.verdictsStalled),
                    static_cast<unsigned long long>(fs.verdictsMirrorFed),
                    static_cast<unsigned long long>(fs.crashes),
                    static_cast<unsigned long long>(fs.restarts), fs.finalOutputRoas,
                    fs.twinFinalRoas);
            }
            if (!r.passed) {
                ++failures;
                std::printf("fleet seed %llu VIOLATIONS:\n",
                            static_cast<unsigned long long>(r.seed));
                for (const std::string& v : r.violations) std::printf("  %s\n", v.c_str());
                const std::string file =
                    "fleet-fail-seed" + std::to_string(r.seed) + ".transcript";
                if (writeFileOrComplain(file, r.transcript.serialize())) {
                    std::printf("  transcript written to %s\n", file.c_str());
                }
            }
            if (!transcriptOut.empty()) transcripts += r.transcript.serialize();
        }
        std::printf("fleet: %llu/%llu seeds passed  (N=%u Q=%u)\n",
                    static_cast<unsigned long long>(seeds - failures),
                    static_cast<unsigned long long>(seeds), fleetCfg.members, fleetCfg.quorum);
        if (!transcriptOut.empty() && !writeFileOrComplain(transcriptOut, transcripts)) {
            return finish(1);
        }
        if (!transcriptOut.empty() && !quiet) {
            std::printf("transcripts written to %s\n", transcriptOut.c_str());
        }
        return finishRun(failures == 0);
    }

    if (!packSpec.empty()) {
        // Attack-zoo mode: every (pack, seed) cell of the grid is an
        // independent task; results print in pack-catalogue then seed
        // order, so the report reads identically at every thread count.
        std::vector<std::string> packs;
        try {
            packs = adversary::resolvePackList(packSpec);
        } catch (const Error& e) {
            std::fprintf(stderr, "rpkic-soak: --pack: %s\n", e.what());
            return finish(1);
        }
        rc::parallel::Pool& packPool = rc::parallel::defaultPool();
        const std::size_t cells = packs.size() * static_cast<std::size_t>(seeds);
        const std::vector<adversary::PackRunResult> runs =
            packPool.parallelMap<adversary::PackRunResult>(cells, [&](std::size_t t) {
                adversary::PackRunConfig runCfg;
                runCfg.pack = packs[t / seeds];
                runCfg.seed = seedBase + (t % seeds);
                runCfg.rounds = cfg.rounds;
                runCfg.retryBudget = cfg.retryBudget;
                runCfg.registry = exportRegistry;
                runCfg.disableDetection = disableDetection;
                return adversary::runPack(runCfg);
            });
        std::uint64_t failures = 0;
        std::string transcripts;
        for (const adversary::PackRunResult& r : runs) {
            printPackResult(r, quiet);
            writePostmortems(r.postmortems);
            if (!transcriptOut.empty()) transcripts += r.transcript;
            if (!r.passed) ++failures;
        }
        std::printf("attack zoo: %llu/%llu runs passed  (packs=%zu seeds=%llu)\n",
                    static_cast<unsigned long long>(cells - failures),
                    static_cast<unsigned long long>(cells), packs.size(),
                    static_cast<unsigned long long>(seeds));
        if (!transcriptOut.empty() && !writeFileOrComplain(transcriptOut, transcripts)) {
            return finish(1);
        }
        if (!transcriptOut.empty() && !quiet) {
            std::printf("transcripts written to %s\n", transcriptOut.c_str());
        }
        return finishRun(failures == 0);
    }

    // Durable-store state on the real filesystem: one DiskVfs shared by
    // every run (it is stateless), one fresh directory per seed.
    vfs::DiskVfs diskVfs;
    if (!stateDir.empty() && cfg.crashEvery == 0 && !crashSweep) {
        std::fprintf(stderr,
                     "rpkic-soak: --state-dir has no effect without --crash-every N\n");
    }
    const auto applyStateDir = [&](SoakConfig& runCfg) {
        if (stateDir.empty()) return;
        runCfg.stateVfs = &diskVfs;
        runCfg.stateDir = stateDir + "/seed" + std::to_string(runCfg.seed);
        std::error_code ec;
        std::filesystem::remove_all(runCfg.stateDir, ec);  // fresh per run
    };

    if (crashSweep) {
        // Exhaustive per-VFS-op crash enumeration (sim/crash_sweep.hpp).
        // Each seed is an independent CPU-bound task.
        rc::parallel::Pool& sweepPool = rc::parallel::defaultPool();
        const std::vector<SweepResult> sweeps = sweepPool.parallelMap<SweepResult>(
            static_cast<std::size_t>(seeds), [&](std::size_t s) {
                SweepConfig sc;
                sc.seed = seedBase + s;
                sc.adversarialProbability = cfg.adversarialProbability;
                return runCrashSweep(sc);
            });
        std::uint64_t failures = 0;
        for (std::uint64_t s = 0; s < seeds; ++s) {
            const SweepResult& r = sweeps[s];
            if (!quiet || !r.passed) {
                std::printf(
                    "sweep seed %-6llu %s  crash-points=%llu fired=%llu pre=%llu "
                    "post=%llu none=%llu torn-bytes=%llu rounds-resumed=%llu\n",
                    static_cast<unsigned long long>(seedBase + s), r.passed ? "ok  " : "FAIL",
                    static_cast<unsigned long long>(r.crashPoints),
                    static_cast<unsigned long long>(r.crashesFired),
                    static_cast<unsigned long long>(r.recoveredPre),
                    static_cast<unsigned long long>(r.recoveredPost),
                    static_cast<unsigned long long>(r.recoveredNone),
                    static_cast<unsigned long long>(r.tornBytes),
                    static_cast<unsigned long long>(r.roundsResumed));
            }
            for (const std::string& v : r.violations) std::printf("  %s\n", v.c_str());
            writePostmortems(r.postmortems);
            if (!r.passed) ++failures;
        }
        std::printf("crash sweep: %llu/%llu seeds passed\n",
                    static_cast<unsigned long long>(seeds - failures),
                    static_cast<unsigned long long>(seeds));
        return finishRun(failures == 0);
    }

    if (!planPath.empty()) {
        std::ifstream in(planPath, std::ios::binary);
        if (!in) {
            std::fprintf(stderr, "rpkic-soak: cannot open %s\n", planPath.c_str());
            return finish(1);
        }
        std::stringstream buf;
        buf << in.rdbuf();
        FaultPlan plan;
        try {
            plan = FaultPlan::parse(buf.str());
        } catch (const ParseError& e) {
            std::fprintf(stderr, "rpkic-soak: %s: %s\n", planPath.c_str(), e.what());
            return finish(1);
        }
        if (!plan.pack.empty()) {
            // A pack plan: replay the pack run (delivery faults from the
            // plan, authority script and overlays re-derived from the
            // pack name + seed) and re-judge it against the oracle.
            std::printf("replaying %s: pack=%s seed=%llu rounds=%llu faults=%zu\n",
                        planPath.c_str(), plan.pack.c_str(),
                        static_cast<unsigned long long>(plan.seed),
                        static_cast<unsigned long long>(plan.rounds), plan.faults.size());
            adversary::PackRunConfig overrides;
            overrides.registry = exportRegistry;
            overrides.disableDetection = disableDetection;
            adversary::PackRunResult r;
            try {
                r = adversary::runPackWithPlan(plan, overrides);
            } catch (const Error& e) {
                std::fprintf(stderr, "rpkic-soak: %s: %s\n", planPath.c_str(), e.what());
                return finish(1);
            }
            printPackResult(r, /*quiet=*/false);
            writePostmortems(r.postmortems);
            if (!transcriptOut.empty() && !writeFileOrComplain(transcriptOut, r.transcript)) {
                return finish(1);
            }
            return finishRun(r.passed);
        }
        std::printf("replaying %s: seed=%llu rounds=%llu faults=%zu crash-every=%u\n",
                    planPath.c_str(), static_cast<unsigned long long>(plan.seed),
                    static_cast<unsigned long long>(plan.rounds), plan.faults.size(),
                    plan.crashEvery);
        // Start from cfg so registry/status/epoch wiring (--serve, --rtr,
        // --rtr-dump) applies to replays too; plan-derived fields are
        // restored from the plan inside runSoakWithPlan.
        SoakConfig replayCfg = cfg;
        replayCfg.seed = plan.seed;
        applyStateDir(replayCfg);
        const SoakResult r = runSoakWithPlan(plan, replayCfg);
        printResult(r, /*quiet=*/false);
        if (scoreboard) printScoreboard(r);
        writePostmortems(r.postmortems);
        if (!rtrDump.empty() && !writeFileOrComplain(rtrDump, r.epochDump)) return finish(1);
        if (!rtrDump.empty() && !quiet) {
            std::printf("epoch dump written to %s\n", rtrDump.c_str());
        }
        return finishRun(r.passed);
    }

    // The seed sweep fans out over the worker pool: every seed's run (and
    // its optional weakened --compare twin) is an independent task writing
    // only its own SeedOutcome slot. Results are printed afterwards in
    // seed order, so the report reads identically at every thread count.
    struct SeedOutcome {
        SoakResult result;
        SoakResult weakened;
        bool hasWeakened = false;
    };
    rc::parallel::Pool& pool = rc::parallel::defaultPool();
    const std::vector<SeedOutcome> outcomes =
        pool.parallelMap<SeedOutcome>(static_cast<std::size_t>(seeds), [&](std::size_t s) {
            SoakConfig runCfg = cfg;
            runCfg.seed = seedBase + s;
            applyStateDir(runCfg);
            SeedOutcome o;
            o.result = runSoak(runCfg);
            if (compare) {
                SoakConfig weak = runCfg;
                weak.retryBudget = 0;
                // The weakened twin is a diagnostic; keep its epochs out
                // of the live RTR store and the determinism dump.
                weak.rtrStore = nullptr;
                weak.captureEpochs = false;
                weak.onEpochPublished = nullptr;
                o.weakened = runSoak(weak);
                o.hasWeakened = true;
            }
            return o;
        });

    std::uint64_t failures = 0;
    std::uint64_t totalAlarms = 0, totalAbsorbed = 0, totalFailedRounds = 0, totalHits = 0;
    for (std::uint64_t s = 0; s < seeds; ++s) {
        const SeedOutcome& o = outcomes[s];
        const SoakResult& r = o.result;
        printResult(r, quiet);
        if (scoreboard) printScoreboard(r);
        writePostmortems(r.postmortems);
        if (!r.passed) ++failures;
        totalAlarms += r.stats.alarms;
        totalAbsorbed += r.stats.faultsAbsorbed;
        totalFailedRounds += r.stats.pointRoundsFailed;
        totalHits += r.stats.faultApplications;

        if (o.hasWeakened) {
            const SoakResult& w = o.weakened;
            std::printf(
                "  compare seed %-6llu budget=%u: failed-rounds=%llu alarms=%llu "
                "roas=%zu | budget=0: failed-rounds=%llu alarms=%llu roas=%zu%s\n",
                static_cast<unsigned long long>(seedBase + s), cfg.retryBudget,
                static_cast<unsigned long long>(r.stats.pointRoundsFailed),
                static_cast<unsigned long long>(r.stats.alarms), r.stats.validRoasFinal,
                static_cast<unsigned long long>(w.stats.pointRoundsFailed),
                static_cast<unsigned long long>(w.stats.alarms), w.stats.validRoasFinal,
                w.passed ? "" : "  [weakened run FAILED invariants]");
        }
    }

    std::printf(
        "soak: %llu/%llu seeds passed  (fault hits=%llu, absorbed=%llu, "
        "point-rounds failed=%llu, alarms=%llu)\n",
        static_cast<unsigned long long>(seeds - failures),
        static_cast<unsigned long long>(seeds), static_cast<unsigned long long>(totalHits),
        static_cast<unsigned long long>(totalAbsorbed),
        static_cast<unsigned long long>(totalFailedRounds),
        static_cast<unsigned long long>(totalAlarms));
    if (!rtrDump.empty()) {
        std::string dump;
        for (std::uint64_t s = 0; s < seeds; ++s) dump += outcomes[s].result.epochDump;
        if (!writeFileOrComplain(rtrDump, dump)) return finish(1);
        if (!quiet) std::printf("epoch dump written to %s\n", rtrDump.c_str());
    }
    return finishRun(failures == 0);
}
