/**
 * @file
 * In-memory span recorder for the end-to-end benchmark's traced runs.
 *
 * A span wraps one call the harness makes into a layer's public API:
 * its name, start and end (steady-clock ns since the recorder was
 * built), the index of the enclosing span (-1 at the root) and the
 * operation it belongs to (-1 outside any operation; a child inherits
 * its parent's).  Spans stay in memory until the run ends and are
 * written out once.  A disabled recorder records nothing, so an
 * untraced run pays one branch per call site.
 */

#ifndef DHL_E2EBENCH_SPAN_TRACE_HPP
#define DHL_E2EBENCH_SPAN_TRACE_HPP

#include <chrono>
#include <cstdint>
#include <cstring>
#include <ostream>
#include <vector>

namespace e2ebench {

struct Span
{
    const char *name;     ///< Static string: "<layer>.<call>".
    std::int64_t start_ns;
    std::int64_t end_ns;  ///< -1 while open.
    std::int32_t parent;  ///< Index of the enclosing span, -1 at root.
    std::int64_t op;      ///< Operation id, -1 outside any operation.
};

class SpanRecorder
{
  public:
    using Clock = std::chrono::steady_clock;

    explicit SpanRecorder(bool enabled)
        : enabled_(enabled), origin_(Clock::now())
    {}

    bool enabled() const { return enabled_; }

    /** Open a child of the innermost open span. */
    std::int32_t
    open(const char *name, std::int64_t op)
    {
        const auto id = static_cast<std::int32_t>(spans_.size());
        const std::int32_t parent = stack_.empty() ? -1 : stack_.back();
        if (op < 0 && parent >= 0)
            op = spans_[static_cast<std::size_t>(parent)].op;
        spans_.push_back(Span{name, nowNs(), -1, parent, op});
        stack_.push_back(id);
        return id;
    }

    /** Close the innermost open span (which must be @p id). */
    void
    close(std::int32_t id)
    {
        spans_[static_cast<std::size_t>(id)].end_ns = nowNs();
        stack_.pop_back();
    }

    std::size_t size() const { return spans_.size(); }
    const std::vector<Span> &spans() const { return spans_; }

    /** Summed duration, ms, of the spans named @p name recorded at or
     *  after index @p first. */
    double
    totalMs(const char *name, std::size_t first) const
    {
        std::int64_t ns = 0;
        for (std::size_t i = first; i < spans_.size(); ++i)
            if (std::strcmp(spans_[i].name, name) == 0)
                ns += spans_[i].end_ns - spans_[i].start_ns;
        return static_cast<double>(ns) * 1e-6;
    }

    /** Self time of every span, ns: its duration minus the part its
     *  children cover.  Children of one span run one after another on
     *  this thread, so they never overlap. */
    std::vector<std::int64_t>
    selfNs() const
    {
        std::vector<std::int64_t> self(spans_.size());
        for (std::size_t i = 0; i < spans_.size(); ++i)
            self[i] = spans_[i].end_ns - spans_[i].start_ns;
        for (const Span &s : spans_)
            if (s.parent >= 0)
                self[static_cast<std::size_t>(s.parent)] -=
                    s.end_ns - s.start_ns;
        return self;
    }

    /** One JSON object per line, in recording order. */
    void
    write(std::ostream &os) const
    {
        const std::vector<std::int64_t> self = selfNs();
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            os << "{\"id\":" << i << ",\"name\":\"" << s.name
               << "\",\"start_ns\":" << s.start_ns
               << ",\"end_ns\":" << s.end_ns << ",\"parent\":" << s.parent
               << ",\"op\":" << s.op << ",\"self_ns\":" << self[i]
               << "}\n";
        }
    }

  private:
    std::int64_t
    nowNs() const
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   Clock::now() - origin_)
            .count();
    }

    bool enabled_;
    Clock::time_point origin_;
    std::vector<Span> spans_;
    std::vector<std::int32_t> stack_; ///< Open spans, innermost last.
};

/** RAII span: opens on construction, closes on scope exit. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanRecorder &rec, const char *name, std::int64_t op = -1)
        : rec_(rec), id_(rec.enabled() ? rec.open(name, op) : -1)
    {}

    ~ScopedSpan()
    {
        if (id_ >= 0)
            rec_.close(id_);
    }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    SpanRecorder &rec_;
    std::int32_t id_;
};

} // namespace e2ebench

#endif // DHL_E2EBENCH_SPAN_TRACE_HPP
