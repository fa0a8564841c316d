// The SHA-256 block-compression backends behind Sha256, exposed so tests
// can run them side by side and benchmarks can name the one in use.
// Program code hashes through sha256.hpp and never includes this header.
//
// Two backends exist: the portable FIPS 180-4 rounds, and on x86 the SHA
// extensions (SHA-NI). Sha256 picks one from CPUID on first use; nothing
// else selects it.
#pragma once

#include <cstddef>
#include <cstdint>

#if defined(__x86_64__) || defined(__i386__)
#define RC_SHA256_HAVE_SHANI 1
#else
#define RC_SHA256_HAVE_SHANI 0
#endif

namespace rpkic::sha256_backend {

/// Runs the compression function over `n` consecutive 64-byte blocks,
/// updating the eight-word chaining state in place.
using CompressFn = void (*)(std::uint32_t* state, const std::uint8_t* blocks, std::size_t n);

void compressPortable(std::uint32_t* state, const std::uint8_t* blocks, std::size_t n);

#if RC_SHA256_HAVE_SHANI
/// Requires shaNiAvailable(); the instructions fault on CPUs without them.
void compressShaNi(std::uint32_t* state, const std::uint8_t* blocks, std::size_t n);
#endif

/// True when this CPU has SHA-NI plus the SSE4.1/SSSE3 shuffles the
/// backend uses (CPUID leaf 7 EBX bit 29, leaf 1 ECX bits 19 and 9).
bool shaNiAvailable();

/// Installs `fn` as the compression function every Sha256 uses and
/// returns the one it replaces. Lets a test run whole signature schemes
/// on each backend; call it only while no other thread is hashing.
CompressFn exchangeCompress(CompressFn fn);

}  // namespace rpkic::sha256_backend
