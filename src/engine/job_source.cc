#include "engine/job_source.hh"

#include <algorithm>
#include <string>

namespace pstat::engine
{

std::optional<WorkBlock>
MemoryColumnSource::next()
{
    if (delivered_)
        return std::nullopt;
    delivered_ = true;
    views_.reserve(columns_.size());
    for (const pbd::Column &column : columns_)
        views_.push_back(column.view());
    WorkBlock block;
    block.items = columns_.size();
    block.columns = views_;
    return block;
}

std::optional<WorkBlock>
MemoryJobSource::next()
{
    if (delivered_)
        return std::nullopt;
    delivered_ = true;
    WorkBlock block;
    block.items = jobs_.size();
    block.jobs = jobs_;
    return block;
}

std::optional<WorkBlock>
ShardSource::next()
{
    // Release the previous shard before pulling the next one: the
    // consumer side holds at most one mapping at a time, so peak
    // memory stays bounded by the stream's queue capacity.
    views_.clear();
    jobs_.clear();
    current_.reset();
    auto shard = stream_.next();
    if (!shard) {
        stats_.peak_queue_depth = stream_.peakQueueDepth();
        return std::nullopt;
    }
    if (shard->payload() != expected_)
        throw io::ShardError(shard->path() + ": expected " +
                             io::shardPayloadName(expected_) +
                             " records, found " +
                             io::shardPayloadName(shard->payload()));
    current_.emplace(std::move(*shard));
    const io::ShardReader *reader = &*current_;

    WorkBlock block;
    block.index = index_++;
    block.items = reader->size();
    block.shard = reader;
    if (expected_ == io::ShardPayload::Columns) {
        views_.reserve(reader->size());
        for (size_t i = 0; i < reader->size(); ++i)
            views_.push_back(reader->column(i));
        block.columns = views_;
    } else {
        // A shard's symbols come from outside the process, and every
        // HMM kernel indexes the emission table with them: check each
        // against the bound model before the block hands out any job.
        jobs_.reserve(reader->size());
        for (size_t i = 0; i < reader->size(); ++i) {
            const std::span<const int> obs = reader->sequence(i);
            for (const int symbol : obs) {
                if (symbol < 0 || symbol >= model_->num_symbols)
                    throw io::ShardError(
                        reader->path() + ": sequence record " +
                        std::to_string(i) + " has symbol " +
                        std::to_string(symbol) + ", outside the " +
                        "model's [0, " +
                        std::to_string(model_->num_symbols) + ")");
            }
            jobs_.push_back({model_, obs});
        }
        block.jobs = jobs_;
    }
    ++stats_.shards;
    stats_.items += reader->size();
    stats_.peak_mapped_bytes =
        std::max(stats_.peak_mapped_bytes, reader->fileBytes());
    return block;
}

} // namespace pstat::engine
