/**
 * @file
 * RoutingSink — demultiplexes one coalesced run into per-request
 * response records.
 *
 * The serve scheduler coalesces several small same-plan requests into
 * one Executor run over the concatenated columns (server.hh). The
 * engine neither knows nor cares: it delivers results through the
 * ordinary ResultSink channel. This sink is an engine::RecordSink, so
 * every delivered item becomes the Results record that ShardFileSink
 * writes when `pstat eval -o` persists the same run (the skipped and
 * certified bits included): one translation for both, which is what
 * makes a served response byte-identical to the offline result
 * shard. It keeps each record in the owning wire form, and
 * finish()-time slicing by [offset, count) routes the flat record
 * vector back to the individual requests.
 *
 * Bound via PlanInputs::sink, the run's primary route, so the engine
 * accumulates no PlanRun beside it: the daemon answers from these
 * records alone.
 */

#ifndef PSTAT_SERVE_ROUTING_SINK_HH
#define PSTAT_SERVE_ROUTING_SINK_HH

#include <cstddef>
#include <vector>

#include "engine/result_sink.hh"
#include "serve/frame.hh"

namespace pstat::serve
{

/** One request's slice of a coalesced run: records [offset, offset
 *  + count) of the flat delivery order. */
struct RouteSlice
{
    size_t offset = 0; //!< first record index of this request
    size_t count = 0;  //!< how many records belong to it
};

/** The demultiplexing sink described in the file header. */
class RoutingSink final : public engine::RecordSink
{
  public:
    /** Every record delivered so far, in item order. */
    const std::vector<ResponseRecord> &records() const
    {
        return records_;
    }

    /** Copy one request's [offset, offset + count) slice out. */
    std::vector<ResponseRecord>
    slice(const RouteSlice &route) const
    {
        const auto begin =
            records_.begin() +
            static_cast<std::ptrdiff_t>(route.offset);
        return {begin, begin + static_cast<std::ptrdiff_t>(route.count)};
    }

  private:
    void
    emit(const io::ShardResultRecord &record) override
    {
        records_.push_back({record.flags, record.exp, record.limbs,
                            record.aux,
                            {record.path.begin(), record.path.end()}});
    }

    std::vector<ResponseRecord> records_;
};

} // namespace pstat::serve

#endif // PSTAT_SERVE_ROUTING_SINK_HH
