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
    WorkBlock block;
    block.items = columns_.size();
    block.column = [columns = columns_](size_t i) {
        return columns[i].view();
    };
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
        block.column = [reader](size_t i) {
            return reader->column(i);
        };
    } else {
        // A shard's symbols come from outside the process, and every
        // HMM kernel indexes the emission table with them: check each
        // against the bound model before any job can read one.
        const hmm::Model *model = model_;
        for (size_t i = 0; i < reader->size(); ++i) {
            for (const int symbol : reader->sequence(i)) {
                if (symbol < 0 || symbol >= model->num_symbols)
                    throw io::ShardError(
                        reader->path() + ": sequence record " +
                        std::to_string(i) + " has symbol " +
                        std::to_string(symbol) + ", outside the " +
                        "model's [0, " +
                        std::to_string(model->num_symbols) + ")");
            }
        }
        block.job = [reader, model](size_t i) {
            return ForwardJob{model, reader->sequence(i)};
        };
    }
    ++stats_.shards;
    stats_.items += reader->size();
    stats_.peak_mapped_bytes =
        std::max(stats_.peak_mapped_bytes, reader->fileBytes());
    return block;
}

} // namespace pstat::engine
