// SHA-256 correctness against FIPS 180-4 / NIST CAVP vectors, plus
// streaming-interface behaviour.
#include "crypto/sha256.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <string>

#include "util/bytes.hpp"
#include "util/errors.hpp"

namespace rpkic {
namespace {

TEST(Sha256, EmptyInput) {
    EXPECT_EQ(sha256("").hex(),
              "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
    EXPECT_EQ(sha256("abc").hex(),
              "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
    EXPECT_EQ(sha256("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq").hex(),
              "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionA) {
    Sha256 h;
    const std::string chunk(1000, 'a');
    for (int i = 0; i < 1000; ++i) h.update(chunk);
    EXPECT_EQ(h.finish().hex(),
              "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

// Message of `len` bytes whose byte i is i mod 256.
Bytes countingMessage(std::size_t len) {
    Bytes msg(len);
    for (std::size_t i = 0; i < len; ++i) msg[i] = static_cast<std::uint8_t>(i);
    return msg;
}

TEST(Sha256, ExactBlockBoundary) {
    // Lengths on each side of the padding edges: 55 is the longest message
    // whose length field fits its last block, 56..63 spill the padding into
    // a second block, 64/128 end exactly on a block. Digests from Python's
    // hashlib.sha256(bytes(i & 0xff for i in range(n))).
    const struct {
        std::size_t len;
        const char* hex;
    } kCases[] = {
        {0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
        {55, "463eb28e72f82e0a96c0a4cc53690c571281131f672aa229e0d45ae59b598b59"},
        {56, "da2ae4d6b36748f2a318f23e7ab1dfdf45acdc9d049bd80e59de82a60895f562"},
        {63, "29af2686fd53374a36b0846694cc342177e428d1647515f078784d69cdb9e488"},
        {64, "fdeab9acf3710362bd2658cdc9a29e8f9c757fcf9811603a8c447cd1d9151108"},
        {65, "4bfd2c8b6f1eec7a2afeb48b934ee4b2694182027e6d0fc075074f2fabb31781"},
        {119, "da18797ed7c3a777f0847f429724a2d8cd5138e6ed2895c3fa1a6d39d18f7ec6"},
        {120, "f52b23db1fbb6ded89ef42a23ce0c8922c45f25c50b568a93bf1c075420bbb7c"},
        {128, "471fb943aa23c511f6f72f8d1652d9c880cfa392ad80503120547703e56a2be5"},
    };
    for (const auto& c : kCases) {
        const Bytes msg = countingMessage(c.len);
        EXPECT_EQ(sha256(ByteView(msg.data(), msg.size())).hex(), c.hex) << "length " << c.len;
    }
}

TEST(Sha256, ChunkedStreamingMatchesOneShotAtEveryLength) {
    for (std::size_t len = 0; len <= 200; ++len) {
        const Bytes msg = countingMessage(len);
        const Digest oneShot = sha256(ByteView(msg.data(), msg.size()));
        for (const std::size_t chunk : {1, 3, 63, 64, 65}) {
            Sha256 h;
            for (std::size_t at = 0; at < len; at += chunk) {
                h.update(ByteView(msg.data() + at, std::min(chunk, len - at)));
            }
            EXPECT_EQ(h.finish(), oneShot) << "length " << len << ", chunk " << chunk;
        }
    }
}

TEST(Sha256, OneBlockMatchesStreamingUpTo55Bytes) {
    for (std::size_t len = 0; len <= 55; ++len) {
        const Bytes msg = countingMessage(len);
        std::array<std::uint8_t, 64> block;
        block.fill(0xEE);  // padding must overwrite whatever follows the message
        std::copy(msg.begin(), msg.end(), block.begin());
        EXPECT_EQ(sha256OneBlock(block, len), sha256(ByteView(msg.data(), msg.size())))
            << "length " << len;
    }
    std::array<std::uint8_t, 64> block{};
    EXPECT_THROW(sha256OneBlock(block, 56), InvariantError);
}

TEST(Sha256, StreamingMatchesOneShot) {
    const std::string msg = "The Resource Public Key Infrastructure (RPKI) is a new "
                            "infrastructure that prevents some of the most devastating "
                            "attacks on interdomain routing.";
    for (std::size_t split = 0; split <= msg.size(); split += 7) {
        Sha256 h;
        h.update(std::string_view(msg).substr(0, split));
        h.update(std::string_view(msg).substr(split));
        EXPECT_EQ(h.finish(), sha256(msg)) << "split at " << split;
    }
}

TEST(Sha256, ResetReusesObject) {
    Sha256 h;
    h.update("abc");
    EXPECT_EQ(h.finish().hex(),
              "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
    h.reset();
    h.update("");
    EXPECT_EQ(h.finish().hex(),
              "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, PairHashMatchesConcatenation) {
    const Digest a = sha256("left");
    const Digest b = sha256("right");
    Bytes concat(a.bytes.begin(), a.bytes.end());
    concat.insert(concat.end(), b.bytes.begin(), b.bytes.end());
    EXPECT_EQ(sha256Pair(a, b), sha256(ByteView(concat.data(), concat.size())));
    EXPECT_NE(sha256Pair(a, b), sha256Pair(b, a));
}

TEST(Digest, HexRoundTrip) {
    const Digest d = sha256("round trip");
    EXPECT_EQ(Digest::fromHex(d.hex()), d);
}

TEST(Digest, ZeroDetection) {
    Digest d;
    EXPECT_TRUE(d.isZero());
    d.bytes[31] = 1;
    EXPECT_FALSE(d.isZero());
}

TEST(Digest, Ordering) {
    Digest a, b;
    a.bytes[0] = 1;
    b.bytes[0] = 2;
    EXPECT_LT(a, b);
    EXPECT_EQ(a, a);
}

TEST(HexCodec, RoundTrip) {
    const Bytes data = {0x00, 0x01, 0x7f, 0x80, 0xff};
    EXPECT_EQ(toHex(ByteView(data.data(), data.size())), "00017f80ff");
    EXPECT_EQ(fromHex("00017f80ff"), data);
}

TEST(HexCodec, RejectsMalformed) {
    EXPECT_THROW(fromHex("abc"), ParseError);
    EXPECT_THROW(fromHex("zz"), ParseError);
}

}  // namespace
}  // namespace rpkic
