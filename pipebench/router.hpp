// Router-side RTR clients for the benchmark: K loopback TCP sessions to an
// RtrServer, all driven by one poll() loop on the caller's thread.
//
// Each router keeps a mirror of the VRP set built only from the PDUs it
// received — a snapshot after Reset Query, announces and withdraws after
// Serial Query — and the serial of the last End of Data. The benchmark
// compares every mirror with the relying party's state at that serial.
#pragma once

#include <chrono>
#include <cstdint>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "detector/state.hpp"

namespace pipebench {

class RouterFleet {
public:
    using Deadline = std::chrono::steady_clock::time_point;

    /// Connects `count` routers to 127.0.0.1:`port`. Throws
    /// std::runtime_error when a connection fails.
    RouterFleet(std::uint16_t port, std::size_t count);
    ~RouterFleet();
    RouterFleet(const RouterFleet&) = delete;
    RouterFleet& operator=(const RouterFleet&) = delete;

    /// Every router sends Reset Query and loads the snapshot. Returns true
    /// when all hold `serial` before `deadline`.
    bool resetAll(std::uint32_t serial, Deadline deadline);
    /// Waits for the cache's Serial Notify; each router answers with Serial
    /// Query and applies the delta. Returns true when all hold `serial`
    /// before `deadline`.
    bool catchUp(std::uint32_t serial, Deadline deadline);

    std::size_t size() const { return routers_.size(); }
    const std::set<rpkic::RoaTuple>& mirror(std::size_t i) const { return routers_[i].mirror; }
    std::optional<std::uint32_t> serial(std::size_t i) const { return routers_[i].serial; }

    /// Cache Reset PDUs received (each answered with a Reset Query).
    std::uint64_t cacheResets() const { return cacheResets_; }
    /// Duplicate announces, unknown withdraws, Error Reports, malformed PDUs.
    std::uint64_t protocolErrors() const { return protocolErrors_; }

private:
    struct Router {
        int fd = -1;
        std::string in;
        std::set<rpkic::RoaTuple> mirror;
        std::optional<std::uint32_t> serial;
        std::uint16_t session = 0;
        bool querying = false;   ///< a query is outstanding
        bool resetting = false;  ///< the outstanding query is a Reset Query
    };

    void closeAll();
    void send(Router& r, const std::string& bytes);
    void sendResetQuery(Router& r);
    /// Reads what is buffered on `r` and handles every complete PDU.
    /// Returns false when the connection closed or failed.
    bool drain(Router& r);
    void handle(Router& r, std::string_view pdu);
    bool pumpUntil(std::uint32_t serial, Deadline deadline);

    std::vector<Router> routers_;
    std::uint64_t cacheResets_ = 0;
    std::uint64_t protocolErrors_ = 0;
};

}  // namespace pipebench
