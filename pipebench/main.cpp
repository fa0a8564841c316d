// pipebench: one pipeline benchmark for the whole system, driven only
// through the program's public API.
//
//   pipebench --workload steady-churn|cold-start|audit-trace --seed N
//             --seconds S --trace 0|1 [--ops N] [--size full|smoke]
//             [--workdir DIR] [--spans-out FILE]
//
// Workloads (closed loops, one sequential caller; see README.md for why
// each was chosen):
//   steady-churn  one op = one round: leaf authorities add/delete ROAs,
//                 the RP syncs, serializes, commits to disk, renders its
//                 VRPs, publishes an epoch, and K loopback routers catch up
//                 through Serial Notify -> Serial Query -> delta -> End of Data.
//   cold-start    one op = one RP restart from an empty store directory:
//                 full sync, one commit, the first epoch, a fresh RTR server
//                 and K fresh routers loading the snapshot.
//   audit-trace   one op = one consecutive collected day pair of the
//                 synthetic 2013-14 trace: index the new day, diff, report.
//
// Every op's output is checked against an oracle; a mismatch, an exception
// or a router missing its deadline fails the op. The last line of stdout is
// one JSON object {correct, attempted, failed, metrics}: end-to-end metrics
// with --trace 0, per-layer metrics from spans and counters with --trace 1.
// Exit status: 0 when every op passed, 1 on any failure, 2 on bad usage.
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "crypto/sha256.hpp"
#include "crypto/xmss.hpp"
#include "detector/diff.hpp"
#include "model/trace.hpp"
#include "obs/metrics.hpp"
#include "router.hpp"
#include "rp/durable_store.hpp"
#include "rp/relying_party.hpp"
#include "rp/sync_engine.hpp"
#include "rpki/chaos.hpp"
#include "serve/epoch.hpp"
#include "serve/rtr.hpp"
#include "spans.hpp"
#include "util/parallel.hpp"
#include "util/vfs.hpp"
#include "world.hpp"

namespace pipebench {
namespace {

using namespace rpkic;
namespace fs = std::filesystem;

constexpr int kSetups = 3;
constexpr std::uint64_t kSetupOpBase = 1ull << 40;
constexpr auto kRouterDeadline = std::chrono::seconds(5);
/// Epochs the steady-churn cache keeps, and its warm-up rounds. Its routers
/// never lag more than one serial, so a short ring serves every query, and
/// it fills during the warm-up: memory is at its steady state before the
/// measurement instead of growing with the number of rounds a run completes.
constexpr std::size_t kEpochRing = 4;
/// Where model::generateTrace allocates LACNIC's /24s (Case Study 4).
const IpPrefix kLacnicPool = IpPrefix::v4(185u << 24, 8);

struct Args {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::uint64_t ops = 0;  ///< > 0: run exactly this many ops, ignoring --seconds
    bool smoke = false;
    std::string workdir = ".bench_build/pipebench-work";
    std::string spansOut;
};

struct Metric {
    double value = 0;
    std::string unit;
};

/// What one run measured. Per-op latencies are kept separately for traced
/// and untraced ops, so the trace overhead is a same-run comparison.
struct Result {
    std::vector<double> untracedMs;
    std::vector<double> tracedMs;
    std::vector<std::uint64_t> tracedOps;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> failures;
    std::vector<double> setupSeconds;
    std::map<std::string, Metric> layer;
    std::string worldLine;
    Sha256 digest;
};

double median(std::vector<double> v) {
    if (v.empty()) return 0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double msSince(std::int64_t startNs) {
    return static_cast<double>(nowNanos() - startNs) * 1e-6;
}

void fail(Result& res, std::string why) {
    if (res.failures.size() < 8) res.failures.push_back(std::move(why));
}

void digestU64(Sha256& d, std::uint64_t v) {
    std::uint8_t b[8];
    for (int i = 0; i < 8; ++i) b[i] = static_cast<std::uint8_t>(v >> (8 * i));
    d.update(ByteView(b, 8));
}

/// An op's wall time and its error text ("" = passed). Each op times itself,
/// so that oracle checks and teardown stay outside the latency.
struct OpOutcome {
    double ms = 0;
    std::string error;
};

/// Runs `op` until --seconds elapse (or --ops ops ran) or `more` says the
/// workload cannot continue. With --trace 1 every other op is traced; the
/// rest give the untraced baseline for bench.trace_overhead_frac.
void measure(const Args& args, SpanRecorder& spans, Result& res,
             const std::function<OpOutcome(std::uint64_t)>& op,
             const std::function<bool()>& more) {
    const std::int64_t start = nowNanos();
    const auto budgetNs = static_cast<std::int64_t>(args.seconds * 1e9);
    int consecutiveFailures = 0;
    for (std::uint64_t i = 0;; ++i) {
        if (args.ops > 0 ? i >= args.ops : nowNanos() - start >= budgetNs) break;
        if (!more()) break;
        const bool traced = args.trace && i % 2 == 0;
        spans.setEnabled(traced);
        spans.beginOp(i);
        const std::int64_t opStart = nowNanos();
        OpOutcome out;
        try {
            out = op(i);
        } catch (const std::exception& e) {
            out.ms = msSince(opStart);
            out.error = std::string("exception: ") + e.what();
        }
        ++res.attempted;
        (traced ? res.tracedMs : res.untracedMs).push_back(out.ms);
        if (traced) res.tracedOps.push_back(i);
        if (out.error.empty()) {
            consecutiveFailures = 0;
        } else {
            ++res.failed;
            fail(res, "op " + std::to_string(i) + ": " + out.error);
            if (++consecutiveFailures >= 3) break;
        }
    }
    spans.setEnabled(false);
}

/// Per-op span totals by name, plus the share of the op the root spans
/// cover. Only traced ops appear.
struct OpSpans {
    std::map<std::string, double> totalMs;
    double rootMs = 0;
};

std::map<std::uint64_t, OpSpans> spansByOp(const SpanRecorder& spans) {
    std::map<std::uint64_t, OpSpans> out;
    for (const SpanRecord& r : spans.records()) {
        OpSpans& o = out[r.op];
        o.totalMs[r.name] += r.ms();
        if (r.parent < 0) o.rootMs += r.ms();
    }
    return out;
}

/// Median over traced ops of `f(op spans)`.
double medianOverOps(const std::map<std::uint64_t, OpSpans>& byOp,
                     const std::vector<std::uint64_t>& ops,
                     const std::function<double(const OpSpans&)>& f) {
    std::vector<double> v;
    static const OpSpans kEmpty;
    for (std::uint64_t id : ops) {
        const auto it = byOp.find(id);
        v.push_back(f(it == byOp.end() ? kEmpty : it->second));
    }
    return median(v);
}

double spanMs(const OpSpans& o, const char* name) {
    const auto it = o.totalMs.find(name);
    return it == o.totalMs.end() ? 0.0 : it->second;
}

double familyTotal(const obs::RegistrySnapshot& snap, const std::string& name) {
    const obs::FamilySnapshot* f = snap.find(name);
    if (f == nullptr) return 0;
    double total = 0;
    for (const obs::SeriesSnapshot& s : f->series) {
        total += f->kind == obs::MetricKind::Histogram ? static_cast<double>(s.count) : s.value;
    }
    return total;
}

std::uint64_t dirBytes(const std::string& dir) {
    std::uint64_t total = 0;
    for (const auto& e : fs::recursive_directory_iterator(dir)) {
        if (e.is_regular_file()) total += e.file_size();
    }
    return total;
}

double peakRssMb() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

// ---------------------------------------------------------------------------
// Layer probes and registry deltas shared by the workloads.

/// Direct probes of the crypto layer's public functions. Reported on every
/// workload: they move with items that change hashing or signing.
void cryptoProbes(std::uint64_t seed, Result& res) {
    Bytes buf(4u << 20);
    std::mt19937_64 rng(seed);
    for (auto& b : buf) b = static_cast<std::uint8_t>(rng());
    std::vector<double> mbs;
    for (int i = 0; i < 5; ++i) {
        const std::int64_t t = nowNanos();
        const Digest d = sha256(ByteView(buf.data(), buf.size()));
        const double s = msSince(t) * 1e-3;
        if (d.isZero()) throw std::runtime_error("sha256 probe returned a zero digest");
        mbs.push_back(static_cast<double>(buf.size()) / 1e6 / s);
    }
    res.layer["crypto.sha256_mb_s"] = {median(mbs), "MB/s"};

    std::vector<double> perSlot;
    for (int i = 0; i < 5; ++i) {
        const std::int64_t t = nowNanos();
        const Signer s = Signer::generate(seed + static_cast<std::uint64_t>(i), 5);
        perSlot.push_back(msSince(t) / 32.0);
        if (s.signaturesRemaining() != 32) throw std::runtime_error("keygen probe: bad key");
    }
    res.layer["crypto.keygen_ms_per_slot"] = {median(perSlot), "ms"};

    Signer signer = Signer::generate(seed, 4);
    std::vector<double> verifyUs;
    for (int m = 0; m < 8; ++m) {
        const std::string msg = "probe message " + std::to_string(m);
        const Bytes sig = signer.sign(msg);
        const std::int64_t t = nowNanos();
        bool ok = true;
        for (int k = 0; k < 25; ++k) {
            ok = verify(signer.publicKey(), msg, ByteView(sig.data(), sig.size())) && ok;
        }
        verifyUs.push_back(msSince(t) * 1e3 / 25.0);
        if (!ok) throw std::runtime_error("verify probe rejected a valid signature");
    }
    res.layer["crypto.verify_us"] = {median(verifyUs), "us"};
}

/// rc_sync_* / rc_rp_* / rc_rtr_* counter deltas per op over the measured
/// phase, read from the benchmark-owned registry the program wrote into.
struct CounterFamily {
    const char* family;
    const char* metric;
    const char* unit;
};
constexpr CounterFamily kCounterFamilies[] = {
    {"rc_sync_attempts_total", "rc_sync_attempts_per_op", "count"},
    {"rc_sync_rejections_total", "rc_sync_rejections_per_op", "count"},
    {"rc_rp_transitions_total", "rc_rp_transitions_per_op", "count"},
    {"rc_rtr_queries_total", "rc_rtr_queries_per_op", "count"},
    {"rc_rtr_delta_bytes_total", "rc_rtr_delta_bytes_per_op", "bytes"},
    {"rc_rtr_snapshot_bytes_total", "rc_rtr_snapshot_bytes_per_op", "bytes"},
};

void registryDeltas(const obs::RegistrySnapshot& before, const obs::RegistrySnapshot& after,
                    std::uint64_t ops, Result& res) {
    for (const CounterFamily& f : kCounterFamilies) {
        const double d = familyTotal(after, f.family) - familyTotal(before, f.family);
        res.layer[f.metric] = {ops > 0 ? d / static_cast<double>(ops) : 0.0, f.unit};
    }
}

/// The per-layer metric set; every traced run reports all of them,
/// with 0 for a layer the workload never calls.
void fillLayerDefaults(Result& res) {
    static const std::pair<const char*, const char*> kAll[] = {
        {"consent.keygen_s", "s"},        {"consent.publish_ms", "ms"},
        {"consent.signatures", "count"},  {"rpki.fetch_ms", "ms"},
        {"rpki.fetch_calls", "count"},    {"rpki.fetch_bytes", "bytes"},
        {"rp.store_open_ms", "ms"},       {"rp.sync_ms", "ms"},
        {"rp.sync_self_ms", "ms"},        {"rp.points_changed_frac", "ratio"},
        {"rp.serialize_ms", "ms"},        {"rp.state_bytes", "bytes"},
        {"rp.commit_ms", "ms"},           {"rp.commit_bytes", "bytes"},
        {"rp.roa_state_ms", "ms"},        {"rp.alarms", "count"},
        {"serve.epoch_publish_ms", "ms"}, {"serve.delta_bytes", "bytes"},
        {"serve.snapshot_bytes", "bytes"}, {"serve.server_start_ms", "ms"},
        {"serve.router_catchup_ms", "ms"}, {"serve.cache_resets", "count"},
        {"detector.index_build_ms", "ms"}, {"detector.diff_ms", "ms"},
        {"detector.report_ms", "ms"},     {"detector.tuples", "count"},
    };
    for (const auto& [name, unit] : kAll) res.layer.emplace(name, Metric{0.0, unit});
    for (const CounterFamily& f : kCounterFamilies) {
        res.layer.emplace(f.metric, Metric{0.0, f.unit});
    }
}

/// Span-derived layer times shared by the two RP-side workloads.
void rpLayerTimes(const std::map<std::uint64_t, OpSpans>& byOp, Result& res) {
    const auto& ops = res.tracedOps;
    const auto put = [&](const char* metric, const char* span) {
        res.layer[metric] = {medianOverOps(byOp, ops, [span](const OpSpans& o) {
                                 return spanMs(o, span);
                             }),
                             "ms"};
    };
    put("consent.publish_ms", "consent.publish");
    put("rpki.fetch_ms", "rpki.fetch");
    put("rp.store_open_ms", "rp.store_open");
    put("rp.sync_ms", "rp.sync");
    put("rp.serialize_ms", "rp.serialize");
    put("rp.commit_ms", "rp.commit");
    put("rp.roa_state_ms", "rp.roa_state");
    put("serve.epoch_publish_ms", "serve.epoch_publish");
    put("serve.server_start_ms", "serve.server_start");
    put("serve.router_catchup_ms", "serve.router_catchup");
    res.layer["rp.sync_self_ms"] = {
        medianOverOps(byOp, ops,
                      [](const OpSpans& o) {
                          return spanMs(o, "rp.sync") - spanMs(o, "rpki.fetch");
                      }),
        "ms"};
}

/// Median over set-ups of the authority-creation (key generation) time.
void keygenSeconds(const std::map<std::uint64_t, OpSpans>& byOp, Result& res) {
    std::vector<double> s;
    for (const auto& [id, o] : byOp) {
        if (id >= kSetupOpBase) s.push_back(spanMs(o, "consent.create_authority") * 1e-3);
    }
    res.layer["consent.keygen_s"] = {median(s), "s"};
}

/// Per-op values recorded outside the op's timing, medians reported.
struct OpCounts {
    std::map<std::string, std::vector<double>> values;
    void add(const char* name, double v) { values[name].push_back(v); }
    void report(Result& res, const char* name, const char* unit) {
        res.layer[name] = {median(values[name]), unit};
    }
};

/// Source wrapper: every fetch is an "rpki.fetch" span, with calls and
/// bytes counted.
class CountingSource final : public SnapshotSource {
public:
    CountingSource(const Repository& repo, SpanRecorder& spans) : inner_(repo), spans_(spans) {}
    std::vector<std::string> listPoints(std::uint64_t round) override {
        return inner_.listPoints(round);
    }
    std::optional<FileMap> fetchPoint(const std::string& pointUri, std::uint64_t round,
                                      std::uint32_t attempt) override {
        auto s = spans_.span("rpki.fetch");
        std::optional<FileMap> files = inner_.fetchPoint(pointUri, round, attempt);
        ++calls;
        if (files) {
            for (const auto& [name, bytes] : *files) this->bytes += bytes.size();
        }
        return files;
    }
    std::uint64_t calls = 0;
    std::uint64_t bytes = 0;

private:
    RepositorySource inner_;
    SpanRecorder& spans_;
};

/// Compares each router's mirror and serial with the epoch it must hold.
std::string checkRouters(const RouterFleet& routers, const serve::Epoch& epoch) {
    for (std::size_t i = 0; i < routers.size(); ++i) {
        if (routers.serial(i) != epoch.serial) {
            return "router " + std::to_string(i) + " missed serial " + std::to_string(epoch.serial);
        }
        const auto& m = routers.mirror(i);
        const auto& t = epoch.state->tuples();
        if (m.size() != t.size() || !std::equal(m.begin(), m.end(), t.begin())) {
            return "router " + std::to_string(i) + " mirror differs from the RP state at serial " +
                   std::to_string(epoch.serial);
        }
    }
    if (routers.protocolErrors() != 0) return "router protocol errors";
    return "";
}

std::string checkRpOutput(const rp::RelyingParty& rp, const RpkiState& vrps,
                          const World& world) {
    if (rp.alarms().count() != 0) {
        return "honest world raised " + std::to_string(rp.alarms().count()) +
               " alarm(s), first: " + rp.alarms().all().front().str();
    }
    if (!(vrps == world.expectedState())) {
        return "RP VRP set (" + std::to_string(vrps.size()) +
               " tuples) differs from the churn generator's (" +
               std::to_string(world.expectedState().size()) + ")";
    }
    return "";
}

serve::EpochStore::Options epochOptions(obs::Registry& registry, std::size_t capacity) {
    serve::EpochStore::Options o;
    o.capacity = capacity;
    o.registry = &registry;
    return o;
}

serve::RtrServer::Options serverOptions(obs::Registry& registry) {
    serve::RtrServer::Options o;
    o.core.registry = &registry;
    return o;
}

std::size_t routerCount(const Args& a) {
    return a.smoke ? 2 : 4;
}

/// Checks that the root spans of every traced op cover >= 95% of its wall
/// time (so the per-layer breakdown accounts for the op), reports the
/// worst share, and writes the spans out when asked.
void finishTrace(const Args& args, const SpanRecorder& spans,
                 const std::map<std::uint64_t, OpSpans>& byOp, Result& res) {
    double worst = 1.0;
    for (std::size_t i = 0; i < res.tracedOps.size(); ++i) {
        const auto it = byOp.find(res.tracedOps[i]);
        const double root = it == byOp.end() ? 0.0 : it->second.rootMs;
        if (res.tracedMs[i] > 0) worst = std::min(worst, root / res.tracedMs[i]);
    }
    res.layer["bench.span_coverage_min"] = {worst, "ratio"};
    if (worst < 0.95) {
        ++res.failed;
        fail(res, "spans cover only " + std::to_string(worst) + " of an op's wall time");
    }
    if (!args.spansOut.empty()) {
        std::ofstream out(args.spansOut);
        if (!out) throw std::runtime_error("cannot write " + args.spansOut);
        const auto& recs = spans.records();
        for (std::size_t i = 0; i < recs.size(); ++i) {
            const SpanRecord& r = recs[i];
            out << "{\"id\":" << i << ",\"parent\":" << r.parent << ",\"op\":" << r.op
                << ",\"name\":\"" << r.name << "\",\"start_ns\":" << r.startNs
                << ",\"end_ns\":" << r.endNs << "}\n";
        }
    }
}

// ---------------------------------------------------------------------------
// steady-churn

/// The RP side of one running deployment: relying party, sync engine, a
/// durable store on the host filesystem, the epoch store, the RTR server
/// and K routers that hold the first epoch.
struct Deployment {
    Deployment(const World& world, const std::string& dir, std::size_t routers,
               obs::Registry& registry, SpanRecorder& spans)
        : source(world.repository(), spans),
          rp("bench-rp", world.trustAnchors(), rp::RpOptions{}, &registry),
          engine(rp, source, rp::SyncPolicy{}, &registry),
          store(disk, dir, rp::StoreOptions{}, &registry),
          epochs(epochOptions(registry, kEpochRing)),
          server(epochs, serverOptions(registry)) {
        store.open();
        engine.syncRound(1);
        const Bytes state = rp.serializeState();
        store.commit(ByteView(state.data(), state.size()), 1);
        epochs.publish(1, std::make_shared<const RpkiState>(rp.roaState()));
        std::string error;
        if (!server.start("127.0.0.1:0", &error)) {
            throw std::runtime_error("RTR server start: " + error);
        }
        fleet = std::make_unique<RouterFleet>(server.port(), routers);
        if (!fleet->resetAll(epochs.current()->serial,
                             std::chrono::steady_clock::now() + kRouterDeadline)) {
            throw std::runtime_error("routers did not load the first snapshot");
        }
    }

    CountingSource source;
    rp::RelyingParty rp;
    rp::SyncEngine engine;
    vfs::DiskVfs disk;
    rp::DurableStore store;
    serve::EpochStore epochs;
    serve::RtrServer server;
    std::unique_ptr<RouterFleet> fleet;
};

Result runSteadyChurn(const Args& args) {
    Result res;
    SpanRecorder spans(args.trace);
    obs::Registry registry;
    const WorldShape shape = args.smoke ? smokeShape() : fullShape();

    std::unique_ptr<World> world;
    std::unique_ptr<Deployment> dep;
    for (int s = 0; s < kSetups; ++s) {
        dep.reset();
        world.reset();
        fs::remove_all(args.workdir + "/steady");
        spans.beginOp(kSetupOpBase + static_cast<std::uint64_t>(s));
        const std::int64_t t = nowNanos();
        world = std::make_unique<World>(args.seed, shape, 0, spans);
        dep = std::make_unique<Deployment>(*world, args.workdir + "/steady", routerCount(args),
                                           registry, spans);
        res.setupSeconds.push_back(msSince(t) * 1e-3);
    }
    {
        const RpkiState first = dep->rp.roaState();
        const std::string bad = checkRpOutput(dep->rp, first, *world);
        if (!bad.empty()) throw std::runtime_error("initial sync: " + bad);
    }
    res.worldLine = std::to_string(world->publicationPoints()) + " points, " +
                    std::to_string(world->expectedState().size()) + " VRPs, " +
                    std::to_string(routerCount(args)) + " routers";

    Time now = 1;
    std::map<std::string, std::uint64_t> manifestNumbers;
    for (const rp::ManifestClaim& c : dep->rp.exportManifestClaims()) {
        manifestNumbers[c.pointUri] = c.number;
    }
    OpCounts counts;

    const auto round = [&](std::uint64_t) -> OpOutcome {
        OpOutcome out;
        ++now;
        const std::uint64_t fetchCalls = dep->source.calls;
        const std::uint64_t fetchBytes = dep->source.bytes;
        const std::int64_t t0 = nowNanos();
        ChurnResult churn;
        {
            auto s = spans.span("consent.publish");
            churn = world->churn(now);
        }
        rp::SyncReport report;
        {
            auto s = spans.span("rp.sync");
            report = dep->engine.syncRound(now);
        }
        Bytes state;
        {
            auto s = spans.span("rp.serialize");
            state = dep->rp.serializeState();
        }
        {
            auto s = spans.span("rp.commit");
            dep->store.commit(ByteView(state.data(), state.size()),
                              static_cast<std::uint64_t>(now));
        }
        std::shared_ptr<const RpkiState> vrps;
        {
            auto s = spans.span("rp.roa_state");
            vrps = std::make_shared<const RpkiState>(dep->rp.roaState());
        }
        std::shared_ptr<const serve::Epoch> epoch;
        {
            auto s = spans.span("serve.epoch_publish");
            epoch = dep->epochs.publish(static_cast<std::uint64_t>(now), vrps);
        }
        bool caughtUp = false;
        {
            auto s = spans.span("serve.router_catchup");
            dep->server.notify();
            caughtUp = dep->fleet->catchUp(epoch->serial,
                                           std::chrono::steady_clock::now() + kRouterDeadline);
        }
        out.ms = msSince(t0);

        if (!caughtUp) out.error = "routers missed serial " + std::to_string(epoch->serial);
        if (out.error.empty() && report.pointsFailed != 0) out.error = "sync dropped points";
        if (out.error.empty()) out.error = checkRpOutput(dep->rp, *vrps, *world);
        if (out.error.empty()) out.error = checkRouters(*dep->fleet, *epoch);
        digestU64(res.digest, epoch->serial);
        res.digest.update(epoch->snapshotPdus);

        std::size_t changed = 0;
        for (const rp::ManifestClaim& c : dep->rp.exportManifestClaims()) {
            std::uint64_t& n = manifestNumbers[c.pointUri];
            if (n != c.number) ++changed;
            n = c.number;
        }
        if (spans.enabled()) {
            const std::uint64_t fetched = dep->source.calls - fetchCalls;
            counts.add("consent.signatures", static_cast<double>(churn.signatures));
            counts.add("rpki.fetch_calls", static_cast<double>(fetched));
            counts.add("rpki.fetch_bytes", static_cast<double>(dep->source.bytes - fetchBytes));
            counts.add("rp.points_changed_frac",
                       fetched > 0 ? static_cast<double>(changed) / static_cast<double>(fetched)
                                   : 0.0);
            counts.add("rp.state_bytes", static_cast<double>(state.size()));
            counts.add("rp.commit_bytes", static_cast<double>(dirBytes(args.workdir + "/steady")));
            counts.add("rp.alarms", static_cast<double>(report.alarmsRaised));
            counts.add("serve.delta_bytes", static_cast<double>(epoch->deltaPdus.size()));
        }
        return out;
    };
    // Warm rounds outside the measurement: lazy set-up on the serving path
    // (first delta, first Serial Query) is not a steady-state cost.
    spans.setEnabled(false);
    for (std::size_t w = 0; w < kEpochRing; ++w) {
        const OpOutcome warm = round(0);
        if (!warm.error.empty()) throw std::runtime_error("warm-up round: " + warm.error);
    }
    const std::uint64_t resetsBefore = dep->fleet->cacheResets();
    const obs::RegistrySnapshot regBefore = registry.snapshot();
    res.digest = Sha256();

    measure(args, spans, res, round, [&] { return world->canChurn(); });

    if (args.trace) {
        const auto byOp = spansByOp(spans);
        finishTrace(args, spans, byOp, res);
        rpLayerTimes(byOp, res);
        keygenSeconds(byOp, res);
        counts.report(res, "consent.signatures", "count");
        counts.report(res, "rpki.fetch_calls", "count");
        counts.report(res, "rpki.fetch_bytes", "bytes");
        counts.report(res, "rp.points_changed_frac", "ratio");
        counts.report(res, "rp.state_bytes", "bytes");
        counts.report(res, "rp.commit_bytes", "bytes");
        counts.report(res, "rp.alarms", "count");
        counts.report(res, "serve.delta_bytes", "bytes");
        res.layer["serve.snapshot_bytes"] = {
            static_cast<double>(dep->epochs.current()->snapshotPdus.size()), "bytes"};
        res.layer["serve.cache_resets"] = {
            static_cast<double>(dep->fleet->cacheResets() - resetsBefore), "count"};
        registryDeltas(regBefore, registry.snapshot(), res.attempted, res);
    }
    return res;
}

// ---------------------------------------------------------------------------
// cold-start

Result runColdStart(const Args& args) {
    Result res;
    SpanRecorder spans(args.trace);
    obs::Registry registry;
    const WorldShape shape = args.smoke ? smokeShape() : fullShape();

    std::unique_ptr<World> world;
    for (int s = 0; s < kSetups; ++s) {
        world.reset();
        spans.beginOp(kSetupOpBase + static_cast<std::uint64_t>(s));
        const std::int64_t t = nowNanos();
        world = std::make_unique<World>(args.seed, shape, 0, spans);
        res.setupSeconds.push_back(msSince(t) * 1e-3);
    }
    const RpkiState expected = world->expectedState();
    res.worldLine = std::to_string(world->publicationPoints()) + " points, " +
                    std::to_string(expected.size()) + " VRPs, " +
                    std::to_string(routerCount(args)) + " routers";

    CountingSource source(world->repository(), spans);
    OpCounts counts;
    std::uint64_t cacheResets = 0;

    const auto restart = [&](std::uint64_t id) -> OpOutcome {
        OpOutcome out;
        const std::string dir = args.workdir + "/cold-" + std::to_string(id);
        fs::remove_all(dir);
        const std::uint64_t fetchCalls = source.calls;
        const std::uint64_t fetchBytes = source.bytes;
        vfs::DiskVfs disk;
        const std::int64_t t0 = nowNanos();
        std::unique_ptr<rp::DurableStore> store;
        {
            auto s = spans.span("rp.store_open");
            store = std::make_unique<rp::DurableStore>(disk, dir, rp::StoreOptions{}, &registry);
            store->open();
        }
        std::unique_ptr<rp::RelyingParty> rp;
        std::unique_ptr<rp::SyncEngine> engine;
        rp::SyncReport report;
        {
            auto s = spans.span("rp.sync");
            rp = std::make_unique<rp::RelyingParty>("bench-rp", world->trustAnchors(),
                                                    rp::RpOptions{}, &registry);
            engine = std::make_unique<rp::SyncEngine>(*rp, source, rp::SyncPolicy{}, &registry);
            report = engine->syncRound(1);
        }
        Bytes state;
        {
            auto s = spans.span("rp.serialize");
            state = rp->serializeState();
        }
        {
            auto s = spans.span("rp.commit");
            store->commit(ByteView(state.data(), state.size()), 1);
        }
        std::shared_ptr<const RpkiState> vrps;
        {
            auto s = spans.span("rp.roa_state");
            vrps = std::make_shared<const RpkiState>(rp->roaState());
        }
        std::unique_ptr<serve::EpochStore> epochs;
        std::shared_ptr<const serve::Epoch> epoch;
        {
            auto s = spans.span("serve.epoch_publish");
            epochs = std::make_unique<serve::EpochStore>(epochOptions(registry, 1));
            epoch = epochs->publish(1, vrps);
        }
        std::unique_ptr<serve::RtrServer> server;
        {
            auto s = spans.span("serve.server_start");
            server = std::make_unique<serve::RtrServer>(*epochs, serverOptions(registry));
            std::string error;
            if (!server->start("127.0.0.1:0", &error)) {
                throw std::runtime_error("RTR server start: " + error);
            }
        }
        std::unique_ptr<RouterFleet> routers;
        bool loaded = false;
        {
            auto s = spans.span("serve.router_catchup");
            routers = std::make_unique<RouterFleet>(server->port(), routerCount(args));
            loaded = routers->resetAll(epoch->serial,
                                       std::chrono::steady_clock::now() + kRouterDeadline);
        }
        out.ms = msSince(t0);

        if (!loaded) out.error = "routers missed the first snapshot";
        if (out.error.empty() && report.pointsFailed != 0) out.error = "sync dropped points";
        if (out.error.empty()) out.error = checkRpOutput(*rp, *vrps, *world);
        if (out.error.empty()) out.error = checkRouters(*routers, *epoch);
        digestU64(res.digest, epoch->serial);
        res.digest.update(epoch->snapshotPdus);
        cacheResets += routers->cacheResets();
        if (spans.enabled()) {
            counts.add("rpki.fetch_calls", static_cast<double>(source.calls - fetchCalls));
            counts.add("rpki.fetch_bytes", static_cast<double>(source.bytes - fetchBytes));
            counts.add("rp.state_bytes", static_cast<double>(state.size()));
            counts.add("rp.commit_bytes", static_cast<double>(dirBytes(dir)));
            counts.add("rp.alarms", static_cast<double>(report.alarmsRaised));
            counts.add("serve.snapshot_bytes", static_cast<double>(epoch->snapshotPdus.size()));
        }
        routers.reset();
        server->stop();
        fs::remove_all(dir);
        return out;
    };
    spans.setEnabled(false);
    const OpOutcome warm = restart(kSetupOpBase - 1);
    if (!warm.error.empty()) throw std::runtime_error("warm-up restart: " + warm.error);
    res.digest = Sha256();
    cacheResets = 0;
    const obs::RegistrySnapshot regBefore = registry.snapshot();

    measure(args, spans, res, restart, [] { return true; });

    if (args.trace) {
        const auto byOp = spansByOp(spans);
        finishTrace(args, spans, byOp, res);
        rpLayerTimes(byOp, res);
        keygenSeconds(byOp, res);
        counts.report(res, "rpki.fetch_calls", "count");
        counts.report(res, "rpki.fetch_bytes", "bytes");
        counts.report(res, "rp.state_bytes", "bytes");
        counts.report(res, "rp.commit_bytes", "bytes");
        counts.report(res, "rp.alarms", "count");
        counts.report(res, "serve.snapshot_bytes", "bytes");
        // Every point is new to a fresh RP.
        res.layer["rp.points_changed_frac"] = {1.0, "ratio"};
        res.layer["serve.cache_resets"] = {static_cast<double>(cacheResets), "count"};
        registryDeltas(regBefore, registry.snapshot(), res.attempted, res);
    }
    return res;
}

// ---------------------------------------------------------------------------
// audit-trace

Result runAuditTrace(const Args& args) {
    Result res;
    SpanRecorder spans(args.trace);
    model::TraceConfig config;
    config.seed = args.seed;
    if (args.smoke) {
        config.basePairs = 2000;
        config.lacnicPairs = 400;
    }

    std::vector<std::shared_ptr<const RpkiState>> days;
    std::vector<std::string> dates;
    std::vector<std::pair<std::size_t, std::size_t>> pairs;
    for (int s = 0; s < kSetups; ++s) {
        days.clear();
        dates.clear();
        pairs.clear();
        const std::int64_t t = nowNanos();
        model::Trace trace = model::generateTrace(config);
        for (std::size_t i = 0; i < trace.entries.size(); ++i) {
            model::TraceEntry& e = trace.entries[i];
            days.push_back(std::make_shared<const RpkiState>(std::move(e.state)));
            dates.push_back(e.date);
            if (i > 0 && e.collected && trace.entries[i - 1].collected) {
                pairs.emplace_back(i - 1, i);
            }
        }
        res.setupSeconds.push_back(msSince(t) * 1e-3);
    }
    // One strand: on a shared host a multi-threaded pool waits for its most
    // contended thread, which doubled tail_ms under load where a single
    // thread's rose ~10%, and the tail spread then exceeded its bound.
    const std::size_t threads = 1;
    rc::parallel::Pool pool(threads);
    res.worldLine = std::to_string(days.size()) + " days, " + std::to_string(pairs.size()) +
                    " collected day pairs, " + std::to_string(days.back()->size()) +
                    " tuples on the last day, detector on " + std::to_string(threads) + " thread";
    if (pairs.empty()) throw std::runtime_error("trace has no collected day pairs");

    std::optional<PrefixValidityIndex> prev;
    std::size_t prevDay = 0;
    bool sawCaseStudy4 = false;
    OpCounts counts;
    const auto audit = [&](std::uint64_t id) -> OpOutcome {
        OpOutcome out;
        const auto [a, b] = pairs[id % pairs.size()];
        if (!prev || prevDay != a) prev.emplace(days[a], pool);  // lead-in day, not an op
        const std::int64_t t0 = nowNanos();
        std::optional<PrefixValidityIndex> cur;
        {
            auto s = spans.span("detector.index_build");
            cur.emplace(days[b], pool);
        }
        DowngradeReport report;
        {
            auto s = spans.span("detector.diff");
            report = diffStates(*prev, *cur, 8, pool);
        }
        std::string text;
        {
            auto s = spans.span("detector.report");
            text = serializeReport(report);
        }
        out.ms = msSince(t0);

        // Case Study 4 / Figure 5: on 2013-12-20 every LACNIC pair goes
        // valid -> unknown. The generator may whack an unrelated ROA the
        // same day, so the exact count is taken inside LACNIC's pool and
        // the day's total must be at least that.
        if (dates[b] == "2013-12-20") {
            sawCaseStudy4 = true;
            const std::uint64_t lacnic = static_cast<std::uint64_t>(std::count_if(
                report.tupleTransitions.begin(), report.tupleTransitions.end(),
                [](const RouteTransition& t) {
                    return t.before == RouteValidity::Valid &&
                           t.after == RouteValidity::Unknown && kLacnicPool.covers(t.route.prefix);
                }));
            if (lacnic != config.lacnicPairs || report.validToUnknownPairs < lacnic) {
                out.error = "2013-12-20 valid->unknown: " + std::to_string(lacnic) +
                            " LACNIC pairs of " + std::to_string(report.validToUnknownPairs) +
                            ", expected " + std::to_string(config.lacnicPairs);
            }
        }
        res.digest.update(text);
        if (spans.enabled()) counts.add("detector.tuples", static_cast<double>(days[b]->size()));
        prev.emplace(std::move(*cur));
        prevDay = b;
        return out;
    };
    const OpOutcome warm = audit(0);
    if (!warm.error.empty()) throw std::runtime_error("warm-up pair: " + warm.error);
    res.digest = Sha256();
    prev.reset();

    measure(args, spans, res, audit, [] { return true; });
    if (args.ops == 0 && res.attempted >= pairs.size() && !sawCaseStudy4) {
        ++res.failed;
        fail(res, "the 2013-12-20 day pair was never audited");
    }

    if (args.trace) {
        const auto byOp = spansByOp(spans);
        finishTrace(args, spans, byOp, res);
        const auto& ops = res.tracedOps;
        for (const char* name : {"detector.index_build", "detector.diff", "detector.report"}) {
            res.layer[std::string(name) + "_ms"] = {
                medianOverOps(byOp, ops, [name](const OpSpans& o) { return spanMs(o, name); }),
                "ms"};
        }
        counts.report(res, "detector.tuples", "count");
    }
    return res;
}

// ---------------------------------------------------------------------------
// Output

std::string num(double v) {
    char buf[64];
    const auto r = std::to_chars(buf, buf + sizeof buf, v);
    return std::string(buf, r.ptr);
}

int run(const Args& args) {
    fs::create_directories(args.workdir);
    std::printf("pipebench %s seed=%llu seconds=%s trace=%d size=%s\n", args.workload.c_str(),
                static_cast<unsigned long long>(args.seed), num(args.seconds).c_str(),
                args.trace ? 1 : 0, args.smoke ? "smoke" : "full");
    std::fflush(stdout);

    Result res;
    if (args.workload == "steady-churn") {
        res = runSteadyChurn(args);
    } else if (args.workload == "cold-start") {
        res = runColdStart(args);
    } else {
        res = runAuditTrace(args);
    }
    fs::remove_all(args.workdir);

    std::vector<double> all = res.untracedMs;
    all.insert(all.end(), res.tracedMs.begin(), res.tracedMs.end());
    std::sort(all.begin(), all.end());
    const std::size_t n = all.size();
    std::printf("world: %s\n", res.worldLine.c_str());
    std::printf("error_rate %s (%llu of %llu ops failed)\n",
                num(n > 0 ? static_cast<double>(res.failed) / static_cast<double>(n) : 1.0).c_str(),
                static_cast<unsigned long long>(res.failed),
                static_cast<unsigned long long>(res.attempted));
    for (const std::string& f : res.failures) std::printf("FAILED %s\n", f.c_str());
    std::printf("digest %s\n", res.digest.finish().hex().c_str());

    std::map<std::string, Metric> metrics;
    if (args.trace) {
        fillLayerDefaults(res);
        cryptoProbes(args.seed, res);
        const double traced = median(res.tracedMs);
        const double untraced = median(res.untracedMs);
        res.layer["bench.trace_overhead_frac"] = {untraced > 0 ? traced / untraced - 1.0 : 0.0,
                                                  "ratio"};
        metrics = res.layer;
    } else {
        const double p50 = median(all);
        double sumMs = 0;
        for (double v : all) sumMs += v;
        // The highest percentile with >= 10 samples beyond it; a run too
        // short to have one reports its slowest op.
        const std::size_t beyond = n > 10 ? 10 : 0;
        const double tail = n > 0 ? all[n - 1 - beyond] : 0.0;
        const double pct =
            n > 0 ? 100.0 * static_cast<double>(n - beyond) / static_cast<double>(n) : 0.0;
        metrics["p50_ms"] = {p50, "ms"};
        metrics["tail_ms"] = {tail, "ms"};
        metrics["ops_per_s"] = {sumMs > 0 ? static_cast<double>(n) / (sumMs * 1e-3) : 0.0, "1/s"};
        metrics["setup_s"] = {median(res.setupSeconds), "s"};
        metrics["peak_rss_mb"] = {peakRssMb(), "MB"};
        std::printf("tail_ms is p%s of %zu ops (%zu samples beyond it)\n", num(pct).c_str(), n,
                    beyond);
        std::printf("setup_s is the median of %zu set-ups\n", res.setupSeconds.size());
    }
    for (const auto& [name, m] : metrics) {
        std::printf("%-28s %s %s\n", name.c_str(), num(m.value).c_str(), m.unit.c_str());
    }
    const bool correct = res.failed == 0 && res.attempted > 0;
    std::string json = "{\"correct\": " + std::string(correct ? "true" : "false") +
                       ", \"attempted\": " + std::to_string(res.attempted) +
                       ", \"failed\": " + std::to_string(res.failed) + ", \"metrics\": {";
    bool first = true;
    for (const auto& [name, m] : metrics) {
        json += (first ? "" : ", ") + std::string("\"") + name + "\": {\"value\": " + num(m.value) +
                ", \"unit\": \"" + m.unit + "\"}";
        first = false;
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    return correct ? 0 : 1;
}

int usage(const char* why) {
    std::fprintf(stderr,
                 "pipebench: %s\n"
                 "usage: pipebench --workload steady-churn|cold-start|audit-trace --seed N\n"
                 "                 --seconds S --trace 0|1 [--ops N] [--size full|smoke]\n"
                 "                 [--workdir DIR] [--spans-out FILE]\n",
                 why);
    return 2;
}

}  // namespace
}  // namespace pipebench

int main(int argc, char** argv) {
    using namespace pipebench;
    Args args;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
        const std::string v = argv[++i];
        try {
            if (arg == "--workload") {
                args.workload = v;
            } else if (arg == "--seed") {
                args.seed = std::stoull(v);
            } else if (arg == "--seconds") {
                args.seconds = std::stod(v);
            } else if (arg == "--trace") {
                if (v != "0" && v != "1") return usage("--trace takes 0 or 1");
                args.trace = v == "1";
            } else if (arg == "--ops") {
                args.ops = std::stoull(v);
            } else if (arg == "--size") {
                if (v != "full" && v != "smoke") return usage("--size takes full or smoke");
                args.smoke = v == "smoke";
            } else if (arg == "--workdir") {
                args.workdir = v;
            } else if (arg == "--spans-out") {
                args.spansOut = v;
            } else {
                return usage(("unknown flag " + arg).c_str());
            }
        } catch (const std::exception&) {
            return usage(("bad value for " + arg).c_str());
        }
    }
    if (args.workload != "steady-churn" && args.workload != "cold-start" &&
        args.workload != "audit-trace") {
        return usage("unknown or missing --workload");
    }
    if (!(args.seconds > 0) && args.ops == 0) return usage("--seconds must be > 0");
    try {
        return run(args);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "pipebench: %s\n", e.what());
        return 1;
    }
}
