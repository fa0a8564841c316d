// The one codec for the tree's line-oriented text formats: fault plans,
// pack oracles, fleet transcripts/votes/specs and postmortem bundles. A
// line is space-separated tokens, most of them key=value; lists inside a
// value use a one-character separator. Every number goes through the same
// overflow-checked parser, so no format reads a value its writer could not
// have produced.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/errors.hpp"

namespace rpkic::kv {

/// Parses a whole string of decimal digits. False on empty input, any
/// non-digit (signs and spaces included) or a value above UINT64_MAX.
inline bool tryParseU64(std::string_view value, std::uint64_t* out) {
    if (value.empty()) return false;
    std::uint64_t v = 0;
    for (char ch : value) {
        if (ch < '0' || ch > '9') return false;
        const auto digit = static_cast<std::uint64_t>(ch - '0');
        if (v > (UINT64_MAX - digit) / 10) return false;
        v = v * 10 + digit;
    }
    *out = v;
    return true;
}

/// tryParseU64 that also enforces `max`; throws ParseError naming `field`.
inline std::uint64_t parseU64(std::string_view value, const char* field,
                              std::uint64_t max = UINT64_MAX) {
    std::uint64_t out = 0;
    if (!tryParseU64(value, &out) || out > max) {
        throw ParseError(std::string("bad numeric value for '") + field + "': '" +
                         std::string(value) + "'");
    }
    return out;
}

inline std::uint32_t parseU32(std::string_view value, const char* field) {
    return static_cast<std::uint32_t>(parseU64(value, field, UINT32_MAX));
}

/// The space-separated tokens of a line (runs of spaces collapse).
inline std::vector<std::string_view> splitTokens(std::string_view line) {
    std::vector<std::string_view> tokens;
    std::size_t t = 0;
    while (t < line.size()) {
        while (t < line.size() && line[t] == ' ') ++t;
        std::size_t e = t;
        while (e < line.size() && line[e] != ' ') ++e;
        if (e > t) tokens.push_back(line.substr(t, e - t));
        t = e;
    }
    return tokens;
}

/// The key=value pairs of tokens[from...], each split at its first '=';
/// `format` names the format in errors.
inline std::vector<std::pair<std::string_view, std::string_view>> keyValues(
    const std::vector<std::string_view>& tokens, std::size_t from, std::string_view format) {
    std::vector<std::pair<std::string_view, std::string_view>> out;
    for (std::size_t i = from; i < tokens.size(); ++i) {
        const std::size_t eq = tokens[i].find('=');
        if (eq == std::string_view::npos) {
            throw ParseError(std::string(format) + " token is not key=value: " +
                             std::string(tokens[i]));
        }
        out.emplace_back(tokens[i].substr(0, eq), tokens[i].substr(eq + 1));
    }
    return out;
}

/// The key=value tokens of a line whose first token must be `tag`.
inline std::vector<std::pair<std::string_view, std::string_view>> keyValueTokens(
    std::string_view line, std::string_view tag) {
    const std::vector<std::string_view> tokens = splitTokens(line);
    if (tokens.empty()) throw ParseError("empty " + std::string(tag) + " line");
    if (tokens.front() != tag) {
        throw ParseError("expected '" + std::string(tag) + "' line, got: " +
                         std::string(tokens.front()));
    }
    return keyValues(tokens, 1, tag);
}

/// Calls `fn(tokens, line)` for every line of `text` that has tokens and
/// is not a '#' comment.
template <typename Fn>
void forEachTokenLine(std::string_view text, Fn&& fn) {
    std::size_t pos = 0;
    while (pos <= text.size()) {
        const std::size_t nl = std::min(text.find('\n', pos), text.size());
        const std::string_view line = text.substr(pos, nl - pos);
        pos = nl + 1;
        const std::vector<std::string_view> tokens = splitTokens(line);
        if (!tokens.empty() && !tokens.front().starts_with('#')) fn(tokens, line);
    }
}

/// Splits on `sep`. Empty items, and so an empty input, are rejected (a
/// canonical list never writes them).
inline std::vector<std::string_view> splitList(std::string_view value, char sep) {
    std::vector<std::string_view> out;
    std::size_t pos = 0;
    while (pos <= value.size()) {
        const std::size_t end = std::min(value.find(sep, pos), value.size());
        if (end == pos) throw ParseError("empty item in list");
        out.push_back(value.substr(pos, end - pos));
        pos = end + 1;
    }
    return out;
}

/// True if `s` can stand as one token value: no whitespace, newlines, or
/// the separators the formats reserve (',', '@', '=').
inline bool tokenSafe(std::string_view s) {
    return s.find_first_of(" \n\t,@=") == std::string_view::npos;
}

/// Serialization-side check: writing an unsafe token is a caller error.
inline void requireTokenSafe(std::string_view s, const char* what) {
    if (!tokenSafe(s)) {
        throw UsageError(std::string(what) + " contains a reserved character: " + std::string(s));
    }
}

/// Parse-side twin of requireTokenSafe: the parser must reject any token
/// its own serializer could never have written (keyValues splits at the
/// *first* '=', so a later '=' or a tab would otherwise sneak through
/// and break the parse→serialize round trip).
inline void requireParsedTokenSafe(std::string_view s, const char* what) {
    if (!tokenSafe(s)) {
        throw ParseError(std::string(what) + " contains a reserved character: " + std::string(s));
    }
}

}  // namespace rpkic::kv
