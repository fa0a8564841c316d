// Microbenchmarks for the crypto substrate and the manifest machinery:
// hashing, bounded-key generation/signing/verification, and full manifest
// chain verification as a relying party performs it.
#include <benchmark/benchmark.h>

#include "crypto/sha256_backend.hpp"
#include "crypto/wots.hpp"
#include "crypto/xmss.hpp"
#include "rpki/objects.hpp"
#include "rpki/signing.hpp"

namespace {

using namespace rpkic;

void BM_Sha256(benchmark::State& state) {
    const auto size = static_cast<std::size_t>(state.range(0));
    Bytes data(size, 0xAB);
    for (auto _ : state) {
        benchmark::DoNotOptimize(sha256(ByteView(data.data(), data.size())));
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(size));
}
// 64 B is one object digest's worth of padding overhead; 1 KiB a manifest
// body; 1 MiB the bulk rate that state digests and WAL frames see.
BENCHMARK(BM_Sha256)->Arg(64)->Arg(1024)->Arg(1 << 20);

/// The Merkle node function: 64 bytes in, two compressions.
void BM_Sha256Pair(benchmark::State& state) {
    Digest left = sha256("left");
    const Digest right = sha256("right");
    for (auto _ : state) {
        left = sha256Pair(left, right);
        benchmark::DoNotOptimize(left);
    }
}
BENCHMARK(BM_Sha256Pair);

/// One WOTS chain step, the unit that keygen (15 per chain, 67 chains per
/// leaf) and verification repeat: a single-block hash.
void BM_WotsChainStep(benchmark::State& state) {
    const Digest publicSeed = sha256("public seed");
    Digest value = sha256("chain value");
    std::uint32_t position = 0;
    for (auto _ : state) {
        value = wots::chainStep(publicSeed, 3, 17, position++ & 15, value);
        benchmark::DoNotOptimize(value);
    }
}
BENCHMARK(BM_WotsChainStep);

void BM_KeyGeneration(benchmark::State& state) {
    const int height = static_cast<int>(state.range(0));
    std::uint64_t seed = 1;
    for (auto _ : state) {
        benchmark::DoNotOptimize(Signer::generate(seed++, height));
    }
    state.SetLabel("2^" + std::to_string(height) + " signatures per key");
}
BENCHMARK(BM_KeyGeneration)->Arg(3)->Arg(6)->Arg(9)->Unit(benchmark::kMillisecond);

void BM_Sign(benchmark::State& state) {
    Signer signer = Signer::generate(7, 16);  // plenty of one-time keys
    const std::string msg = "manifest body bytes stand-in";
    for (auto _ : state) {
        benchmark::DoNotOptimize(signer.sign(msg));
    }
}
BENCHMARK(BM_Sign)->Unit(benchmark::kMillisecond);

void BM_Verify(benchmark::State& state) {
    Signer signer = Signer::generate(8, 4);
    const std::string msg = "manifest body bytes stand-in";
    const Bytes sig = signer.sign(msg);
    const PublicKey pub = signer.publicKey();
    for (auto _ : state) {
        benchmark::DoNotOptimize(verify(pub, msg, ByteView(sig.data(), sig.size())));
    }
}
BENCHMARK(BM_Verify)->Unit(benchmark::kMillisecond);

/// Verifying a horizontal manifest chain of length N: the incremental
/// relying-party workload after skipping N updates. One signature check
/// (the head) plus N body hashes.
void BM_ManifestChainVerification(benchmark::State& state) {
    const int chainLen = static_cast<int>(state.range(0));
    Signer signer = Signer::generate(11, 8);
    std::vector<Manifest> chain;
    Digest prev{};
    for (int i = 0; i < chainLen; ++i) {
        Manifest m;
        m.issuerRcUri = "rpki://org/org.cer";
        m.pubPointUri = "rpki://org/";
        m.number = static_cast<std::uint64_t>(i) + 1;
        for (int e = 0; e < 40; ++e) {
            m.entries.push_back({"file" + std::to_string(e) + ".roa", sha256("x"), 1});
        }
        std::sort(m.entries.begin(), m.entries.end());
        m.prevManifestHash = prev;
        prev = m.bodyHash();
        chain.push_back(std::move(m));
    }
    signObject(chain.back(), signer);
    const PublicKey pub = signer.publicKey();

    for (auto _ : state) {
        bool ok = verifyObject(chain.back(), pub);
        for (std::size_t i = 1; i < chain.size(); ++i) {
            ok = ok && chain[i].prevManifestHash == chain[i - 1].bodyHash() &&
                 chain[i].number == chain[i - 1].number + 1;
        }
        benchmark::DoNotOptimize(ok);
    }
}
BENCHMARK(BM_ManifestChainVerification)->Arg(2)->Arg(8)->Arg(32)
    ->Unit(benchmark::kMillisecond);

void BM_ObjectEncodeDecode(benchmark::State& state) {
    Roa roa;
    roa.uri = "rpki://org/as7341.roa";
    roa.serial = 9;
    roa.parentUri = "rpki://rir/org.cer";
    roa.asn = 7341;
    for (int i = 0; i < 10; ++i) {
        roa.prefixes.push_back(
            {IpPrefix::v4(0x3FA00000u + (static_cast<std::uint32_t>(i) << 8), 24), 24});
    }
    roa.signature = Bytes(2000, 7);
    for (auto _ : state) {
        const Bytes wire = roa.encode();
        benchmark::DoNotOptimize(Roa::decode(ByteView(wire.data(), wire.size())));
    }
}
BENCHMARK(BM_ObjectEncodeDecode);

}  // namespace

int main(int argc, char** argv) {
    // Printed in the console header and stored in the JSON context.
    benchmark::AddCustomContext("sha256_backend",
                                rpkic::sha256_backend::shaNiAvailable() ? "sha-ni" : "portable");
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
