/**
 * @file
 * Implementation of the trace recorder.
 */

#include "sim/trace.hpp"

#include "common/logging.hpp"
#include "common/units.hpp"
#include "sim/snapshot.hpp"

namespace dhl {
namespace sim {

TraceRecorder::TraceRecorder(Simulator &sim, std::size_t capacity)
    : sim_(sim),
      capacity_(capacity),
      enabled_(false),
      emitted_(0),
      dropped_(0)
{
    fatal_if(capacity == 0, "trace capacity must be positive");
}

void
TraceRecorder::record(std::string_view category, std::string_view object,
                      std::string_view message)
{
    if (!enabled_)
        return;
    ++emitted_;
    if (records_.size() >= capacity_) {
        records_.pop_front();
        ++dropped_;
    }
    records_.push_back(TraceRecord{sim_.now(), std::string(category),
                                   std::string(object),
                                   std::string(message)});
}

void
TraceRecorder::setCapacity(std::size_t max_records)
{
    fatal_if(max_records == 0, "trace capacity must be positive");
    capacity_ = max_records;
    while (records_.size() > capacity_) {
        records_.pop_front();
        ++dropped_;
    }
}

template <class Self, class Ar>
void
TraceRecorder::visit(Self &self, Ar &ar)
{
    ar.expect("capacity", self.capacity_);
    ar.io("emitted", self.emitted_);
    ar.io("dropped", self.dropped_);
    ar.seq("records", "r", self.records_, [&ar](auto &rec) {
        ar.io("when", rec.when);
        ar.io("category", rec.category);
        ar.io("object", rec.object);
        ar.io("message", rec.message);
    });
}

DHL_SNAPSHOT_VISIT(TraceRecorder);

std::vector<TraceRecord>
TraceRecorder::filter(std::string_view category) const
{
    std::vector<TraceRecord> out;
    for (const auto &r : records_) {
        if (r.category == category)
            out.push_back(r);
    }
    return out;
}

void
TraceRecorder::dump(std::ostream &os) const
{
    for (const auto &r : records_) {
        os << units::formatSig(r.when, 9) << " [" << r.category << "] "
           << r.object << ": " << r.message << "\n";
    }
}

void
TraceRecorder::dumpCsv(std::ostream &os) const
{
    os << "time,category,object,message\n";
    auto escape = [](const std::string &s) {
        std::string out;
        bool need_quotes = s.find_first_of(",\"\n") != std::string::npos;
        if (!need_quotes)
            return s;
        out.push_back('"');
        for (char c : s) {
            if (c == '"')
                out.push_back('"');
            out.push_back(c);
        }
        out.push_back('"');
        return out;
    };
    for (const auto &r : records_) {
        os << units::formatSig(r.when, 12) << "," << escape(r.category)
           << "," << escape(r.object) << "," << escape(r.message) << "\n";
    }
}

} // namespace sim
} // namespace dhl
