// In-memory span recorder for the pipeline benchmark.
//
// Spans are opened by the benchmark's own code around calls into the
// program's public functions, so every layer is timed from outside without
// touching the program. A span records its name, start and end on the steady
// clock, the span that caused it (its parent), and the op it belongs to:
// spans of one op share the op identifier. A disabled recorder reads no
// clock and stores nothing, so the untraced run pays one branch per span.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace pipebench {

inline std::int64_t nowNanos() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

struct SpanRecord {
    const char* name = "";
    std::int32_t parent = -1;  ///< index into the record vector, -1 = op root
    std::uint64_t op = 0;
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;

    double ms() const { return static_cast<double>(endNs - startNs) * 1e-6; }
};

class SpanRecorder {
public:
    explicit SpanRecorder(bool enabled) : enabled_(enabled) {}
    SpanRecorder(const SpanRecorder&) = delete;
    SpanRecorder& operator=(const SpanRecorder&) = delete;

    class Scope {
    public:
        Scope(SpanRecorder* rec, const char* name) : rec_(rec) {
            if (rec_ == nullptr) return;
            index_ = static_cast<std::int32_t>(rec_->records_.size());
            rec_->records_.push_back(
                SpanRecord{name, rec_->current_, rec_->op_, nowNanos(), 0});
            rec_->current_ = index_;
        }
        ~Scope() {
            if (rec_ == nullptr) return;
            SpanRecord& r = rec_->records_[static_cast<std::size_t>(index_)];
            r.endNs = nowNanos();
            rec_->current_ = r.parent;
        }
        Scope(const Scope&) = delete;
        Scope& operator=(const Scope&) = delete;

    private:
        SpanRecorder* rec_;
        std::int32_t index_ = -1;
    };

    /// Opens a span for the enclosing scope (a no-op when disabled).
    /// `name` must outlive the recorder; pass string literals.
    [[nodiscard]] Scope span(const char* name) { return Scope(enabled_ ? this : nullptr, name); }

    bool enabled() const { return enabled_; }
    /// Turns recording on or off between ops (never inside an open span).
    void setEnabled(bool on) { enabled_ = on; }
    /// Every span opened from now on belongs to op `id`.
    void beginOp(std::uint64_t id) { op_ = id; }
    const std::vector<SpanRecord>& records() const { return records_; }

private:
    bool enabled_;
    std::uint64_t op_ = 0;
    std::int32_t current_ = -1;
    std::vector<SpanRecord> records_;
};

}  // namespace pipebench
