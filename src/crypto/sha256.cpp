#include "crypto/sha256.hpp"

#include <atomic>
#include <bit>
#include <cstring>

#include "crypto/sha256_backend.hpp"
#include "util/errors.hpp"

#if RC_SHA256_HAVE_SHANI
#include <cpuid.h>
#include <immintrin.h>
#endif

namespace rpkic {

namespace {

constexpr std::uint32_t kInit[8] = {
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
    0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
};

constexpr std::uint32_t kRound[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
};

std::uint32_t rotr(std::uint32_t x, int n) {
    return (x >> n) | (x << (32 - n));
}

// Padding block for a message that is exactly one 64-byte block long:
// 0x80, zeros, then the big-endian bit length 512.
constexpr std::uint8_t kPad64[64] = {
    0x80, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
    0,    0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
    0,    0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0x02, 0x00,
};

void putBe64(std::uint8_t* out, std::uint64_t v) {
    if constexpr (std::endian::native == std::endian::little) v = __builtin_bswap64(v);
    std::memcpy(out, &v, 8);
}

Digest digestOf(const std::uint32_t* state) {
    Digest out;
    for (int i = 0; i < 8; ++i) {
        std::uint32_t word = state[i];
        if constexpr (std::endian::native == std::endian::little) word = __builtin_bswap32(word);
        std::memcpy(out.bytes.data() + 4 * i, &word, 4);
    }
    return out;
}

void compressFirstCall(std::uint32_t* state, const std::uint8_t* blocks, std::size_t n);

// The backend every Sha256 runs. It starts at a resolver rather than being
// set by a dynamic initializer, so a digest taken during some other
// translation unit's static initialization still finds a backend.
constinit std::atomic<sha256_backend::CompressFn> gCompress{compressFirstCall};

void compressFirstCall(std::uint32_t* state, const std::uint8_t* blocks, std::size_t n) {
    sha256_backend::CompressFn fn = sha256_backend::compressPortable;
#if RC_SHA256_HAVE_SHANI
    if (sha256_backend::shaNiAvailable()) fn = sha256_backend::compressShaNi;
#endif
    // Two threads racing here both store the same pointer.
    gCompress.store(fn, std::memory_order_relaxed);
    fn(state, blocks, n);
}

void compress(std::uint32_t* state, const std::uint8_t* blocks, std::size_t n) {
    gCompress.load(std::memory_order_relaxed)(state, blocks, n);
}

}  // namespace

namespace sha256_backend {

void compressPortable(std::uint32_t* state, const std::uint8_t* blocks, std::size_t n) {
    for (; n > 0; --n, blocks += 64) {
        std::uint32_t w[64];
        for (int i = 0; i < 16; ++i) {
            w[i] = (static_cast<std::uint32_t>(blocks[4 * i]) << 24) |
                   (static_cast<std::uint32_t>(blocks[4 * i + 1]) << 16) |
                   (static_cast<std::uint32_t>(blocks[4 * i + 2]) << 8) |
                   static_cast<std::uint32_t>(blocks[4 * i + 3]);
        }
        for (int i = 16; i < 64; ++i) {
            const std::uint32_t s0 =
                rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
            const std::uint32_t s1 = rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16] + s0 + w[i - 7] + s1;
        }

        std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
        std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];

        for (int i = 0; i < 64; ++i) {
            const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
            const std::uint32_t ch = (e & f) ^ (~e & g);
            const std::uint32_t temp1 = h + s1 + ch + kRound[i] + w[i];
            const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
            const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
            const std::uint32_t temp2 = s0 + maj;
            h = g;
            g = f;
            f = e;
            e = d + temp1;
            d = c;
            c = b;
            b = a;
            a = temp1 + temp2;
        }

        state[0] += a;
        state[1] += b;
        state[2] += c;
        state[3] += d;
        state[4] += e;
        state[5] += f;
        state[6] += g;
        state[7] += h;
    }
}

#if RC_SHA256_HAVE_SHANI
// Intel SHA extensions. The state lives in two registers as (A,B,E,F) and
// (C,D,G,H); each SHA256RNDS2 runs two rounds, so a group of four rounds is
// two of them around a shuffle of the message-plus-constant words. The
// message schedule rolls through four registers: MSG1 starts word group
// j at group j-3, MSG2 finishes it at group j-1.
__attribute__((target("sha,sse4.1,ssse3"))) void compressShaNi(std::uint32_t* state,
                                                               const std::uint8_t* blocks,
                                                               std::size_t n) {
    const __m128i byteSwap = _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);

    __m128i tmp = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[0]));
    __m128i state1 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[4]));
    tmp = _mm_shuffle_epi32(tmp, 0xB1);              // CDAB
    state1 = _mm_shuffle_epi32(state1, 0x1B);        // EFGH
    __m128i state0 = _mm_alignr_epi8(tmp, state1, 8);  // ABEF
    state1 = _mm_blend_epi16(state1, tmp, 0xF0);       // CDGH

    for (; n > 0; --n, blocks += 64) {
        const __m128i abefSave = state0;
        const __m128i cdghSave = state1;
        __m128i msg[4];
        for (int i = 0; i < 4; ++i) {
            msg[i] = _mm_shuffle_epi8(
                _mm_loadu_si128(reinterpret_cast<const __m128i*>(blocks + 16 * i)), byteSwap);
        }
#pragma GCC unroll 16
        for (int g = 0; g < 16; ++g) {
            const __m128i cur = msg[g & 3];
            __m128i wk = _mm_add_epi32(
                cur, _mm_loadu_si128(reinterpret_cast<const __m128i*>(&kRound[4 * g])));
            state1 = _mm_sha256rnds2_epu32(state1, state0, wk);
            if (g >= 3 && g <= 14) {
                __m128i& next = msg[(g + 1) & 3];
                next = _mm_add_epi32(next, _mm_alignr_epi8(cur, msg[(g + 3) & 3], 4));
                next = _mm_sha256msg2_epu32(next, cur);
            }
            wk = _mm_shuffle_epi32(wk, 0x0E);
            state0 = _mm_sha256rnds2_epu32(state0, state1, wk);
            if (g >= 1 && g <= 12) {
                __m128i& prev = msg[(g + 3) & 3];
                prev = _mm_sha256msg1_epu32(prev, cur);
            }
        }
        state0 = _mm_add_epi32(state0, abefSave);
        state1 = _mm_add_epi32(state1, cdghSave);
    }

    tmp = _mm_shuffle_epi32(state0, 0x1B);           // FEBA
    state1 = _mm_shuffle_epi32(state1, 0xB1);        // DCHG
    state0 = _mm_blend_epi16(tmp, state1, 0xF0);     // DCBA
    state1 = _mm_alignr_epi8(state1, tmp, 8);        // HGFE
    _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[0]), state0);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[4]), state1);
}
#endif

bool shaNiAvailable() {
#if RC_SHA256_HAVE_SHANI
    unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
    if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0) return false;
    const bool sse41 = (ecx & (1u << 19)) != 0;
    const bool ssse3 = (ecx & (1u << 9)) != 0;
    if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) == 0) return false;
    const bool sha = (ebx & (1u << 29)) != 0;
    return sha && sse41 && ssse3;
#else
    return false;
#endif
}

CompressFn exchangeCompress(CompressFn fn) {
    return gCompress.exchange(fn, std::memory_order_relaxed);
}

}  // namespace sha256_backend

Digest Digest::fromHex(std::string_view hex) {
    const Bytes raw = rpkic::fromHex(hex);
    if (raw.size() != 32) throw ParseError("digest hex must encode exactly 32 bytes");
    Digest d;
    std::memcpy(d.bytes.data(), raw.data(), 32);
    return d;
}

Sha256::Sha256() {
    reset();
}

void Sha256::reset() {
    std::memcpy(state_, kInit, sizeof state_);
    totalBytes_ = 0;
    bufferLen_ = 0;
}

Sha256& Sha256::update(ByteView data) {
    totalBytes_ += data.size();
    std::size_t offset = 0;
    if (bufferLen_ > 0) {
        const std::size_t take = std::min(data.size(), 64 - bufferLen_);
        std::memcpy(buffer_ + bufferLen_, data.data(), take);
        bufferLen_ += take;
        offset = take;
        if (bufferLen_ == 64) {
            compress(state_, buffer_, 1);
            bufferLen_ = 0;
        }
    }
    const std::size_t blocks = (data.size() - offset) / 64;
    if (blocks > 0) {
        compress(state_, data.data() + offset, blocks);
        offset += blocks * 64;
    }
    if (offset < data.size()) {
        bufferLen_ = data.size() - offset;
        std::memcpy(buffer_, data.data() + offset, bufferLen_);
    }
    return *this;
}

Sha256& Sha256::update(std::string_view s) {
    return update(ByteView(reinterpret_cast<const std::uint8_t*>(s.data()), s.size()));
}

Digest Sha256::finish() {
    buffer_[bufferLen_++] = 0x80;
    if (bufferLen_ > 56) {
        std::memset(buffer_ + bufferLen_, 0, 64 - bufferLen_);
        compress(state_, buffer_, 1);
        bufferLen_ = 0;
    }
    std::memset(buffer_ + bufferLen_, 0, 56 - bufferLen_);
    putBe64(buffer_ + 56, totalBytes_ * 8);
    compress(state_, buffer_, 1);
    return digestOf(state_);
}

Digest sha256(ByteView data) {
    Sha256 h;
    h.update(data);
    return h.finish();
}

Digest sha256(std::string_view s) {
    Sha256 h;
    h.update(s);
    return h.finish();
}

Digest sha256OneBlock(std::array<std::uint8_t, 64>& block, std::size_t len) {
    RC_CHECK(len <= 55, "sha256OneBlock message must fit one block with its padding");
    block[len] = 0x80;
    std::memset(block.data() + len + 1, 0, 55 - len);
    putBe64(block.data() + 56, static_cast<std::uint64_t>(len) * 8);
    std::uint32_t state[8];
    std::memcpy(state, kInit, sizeof state);
    compress(state, block.data(), 1);
    return digestOf(state);
}

Digest sha256Pair(const Digest& left, const Digest& right) {
    std::uint8_t block[64];
    std::memcpy(block, left.bytes.data(), 32);
    std::memcpy(block + 32, right.bytes.data(), 32);
    std::uint32_t state[8];
    std::memcpy(state, kInit, sizeof state);
    compress(state, block, 1);
    compress(state, kPad64, 1);
    return digestOf(state);
}

}  // namespace rpkic
