#include "router.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <stdexcept>

#include "serve/epoch.hpp"

namespace pipebench {

using namespace rpkic;
using serve::PduType;

namespace {

std::uint32_t readU32(std::string_view b, std::size_t at) {
    return (static_cast<std::uint32_t>(static_cast<unsigned char>(b[at])) << 24) |
           (static_cast<std::uint32_t>(static_cast<unsigned char>(b[at + 1])) << 16) |
           (static_cast<std::uint32_t>(static_cast<unsigned char>(b[at + 2])) << 8) |
           static_cast<std::uint32_t>(static_cast<unsigned char>(b[at + 3]));
}

/// Decodes an IPv4/IPv6 Prefix PDU body (RFC 8210 §5.6/§5.7).
RoaTuple decodePrefix(std::string_view pdu, bool v6) {
    RoaTuple t;
    t.prefix.family = v6 ? IpFamily::v6 : IpFamily::v4;
    t.prefix.length = static_cast<std::uint8_t>(pdu[9]);
    t.maxLength = static_cast<std::uint8_t>(pdu[10]);
    const auto u64 = [&](std::size_t at) {
        return (static_cast<std::uint64_t>(readU32(pdu, at)) << 32) | readU32(pdu, at + 4);
    };
    if (v6) {
        t.prefix.addr = U128{u64(12), u64(20)};
        t.asn = readU32(pdu, 28);
    } else {
        t.prefix.addr = U128{0, readU32(pdu, 12)};
        t.asn = readU32(pdu, 16);
    }
    return t;
}

constexpr std::uint32_t kMaxPduBytes = 65536;

}  // namespace

RouterFleet::RouterFleet(std::uint16_t port, std::size_t count) {
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    for (std::size_t i = 0; i < count; ++i) {
        Router r;
        r.fd = ::socket(AF_INET, SOCK_STREAM, 0);
        const bool ok =
            r.fd >= 0 &&
            ::connect(r.fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) == 0;
        routers_.push_back(std::move(r));
        if (!ok) {
            closeAll();  // the destructor does not run when a constructor throws
            throw std::runtime_error("router could not connect to the RTR server");
        }
        int one = 1;
        ::setsockopt(routers_.back().fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    }
}

RouterFleet::~RouterFleet() {
    closeAll();
}

void RouterFleet::closeAll() {
    for (Router& r : routers_) {
        if (r.fd >= 0) ::close(r.fd);
        r.fd = -1;
    }
}

void RouterFleet::send(Router& r, const std::string& bytes) {
    std::size_t sent = 0;
    while (sent < bytes.size()) {
        const ssize_t n = ::send(r.fd, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
        if (n < 0 && errno == EINTR) continue;
        if (n <= 0) {
            ++protocolErrors_;
            return;
        }
        sent += static_cast<std::size_t>(n);
    }
}

void RouterFleet::sendResetQuery(Router& r) {
    std::string q;
    serve::appendResetQuery(q);
    r.querying = true;
    r.resetting = true;
    send(r, q);
}

bool RouterFleet::resetAll(std::uint32_t serial, Deadline deadline) {
    for (Router& r : routers_) sendResetQuery(r);
    return pumpUntil(serial, deadline);
}

bool RouterFleet::catchUp(std::uint32_t serial, Deadline deadline) {
    return pumpUntil(serial, deadline);
}

bool RouterFleet::pumpUntil(std::uint32_t serial, Deadline deadline) {
    std::vector<pollfd> fds(routers_.size());
    while (true) {
        bool done = true;
        for (const Router& r : routers_) {
            if (r.querying || r.serial != serial) done = false;
        }
        if (done) return true;
        const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                              deadline - std::chrono::steady_clock::now())
                              .count();
        if (left <= 0) return false;
        for (std::size_t i = 0; i < routers_.size(); ++i) {
            fds[i] = pollfd{routers_[i].fd, POLLIN, 0};
        }
        const int ready = ::poll(fds.data(), fds.size(), static_cast<int>(left));
        if (ready < 0 && errno != EINTR) return false;
        for (std::size_t i = 0; i < routers_.size(); ++i) {
            if (fds[i].revents != 0 && !drain(routers_[i])) return false;
        }
    }
}

bool RouterFleet::drain(Router& r) {
    char chunk[65536];
    while (true) {
        const ssize_t n = ::recv(r.fd, chunk, sizeof(chunk), MSG_DONTWAIT);
        if (n > 0) {
            r.in.append(chunk, static_cast<std::size_t>(n));
            continue;
        }
        if (n < 0 && errno == EINTR) continue;
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        return false;  // closed by the cache, or a socket error
    }
    std::size_t at = 0;
    serve::PduHeader header;
    while (serve::peekPduHeader(std::string_view(r.in).substr(at), &header)) {
        if (header.length < 8 || header.length > kMaxPduBytes) {
            ++protocolErrors_;
            return false;
        }
        if (r.in.size() - at < header.length) break;
        handle(r, std::string_view(r.in).substr(at, header.length));
        at += header.length;
    }
    r.in.erase(0, at);
    return true;
}

void RouterFleet::handle(Router& r, std::string_view pdu) {
    serve::PduHeader h;
    serve::peekPduHeader(pdu, &h);
    if (h.version != serve::kRtrVersion) {
        ++protocolErrors_;
        return;
    }
    switch (static_cast<PduType>(h.type)) {
        case PduType::SerialNotify: {
            if (h.length != 12) break;
            const std::uint32_t notified = readU32(pdu, 8);
            if (r.querying || r.serial == notified) return;
            if (!r.serial.has_value()) {
                sendResetQuery(r);
                return;
            }
            std::string q;
            serve::appendSerialQuery(q, r.session, *r.serial);
            r.querying = true;
            send(r, q);
            return;
        }
        case PduType::CacheResponse:
            r.session = h.session;
            if (r.resetting) r.mirror.clear();
            return;
        case PduType::Ipv4Prefix:
        case PduType::Ipv6Prefix: {
            const bool v6 = static_cast<PduType>(h.type) == PduType::Ipv6Prefix;
            if (h.length != (v6 ? 32u : 20u)) break;
            const RoaTuple t = decodePrefix(pdu, v6);
            const bool announce = (static_cast<unsigned char>(pdu[8]) & 1) != 0;
            const bool changed = announce ? r.mirror.insert(t).second : r.mirror.erase(t) == 1;
            if (!changed) ++protocolErrors_;
            return;
        }
        case PduType::EndOfData:
            if (h.length != 24) break;
            r.serial = readU32(pdu, 8);
            r.session = h.session;
            r.querying = false;
            r.resetting = false;
            return;
        case PduType::CacheReset:
            ++cacheResets_;
            sendResetQuery(r);
            return;
        default:
            break;
    }
    ++protocolErrors_;
}

}  // namespace pipebench
