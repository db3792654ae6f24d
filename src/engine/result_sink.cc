#include "engine/result_sink.hh"

#include <utility>

namespace pstat::engine
{

namespace
{

/** Fold one shard's screened batch into the accumulated PlanRun. */
void
mergeScreened(ScreenedPValueBatch &total,
              const ScreenedPValueBatch &batch)
{
    total.config = batch.config;
    total.results.insert(total.results.end(), batch.results.begin(),
                         batch.results.end());
    total.skipped.insert(total.skipped.end(), batch.skipped.begin(),
                         batch.skipped.end());
    total.estimates_log2.insert(total.estimates_log2.end(),
                                batch.estimates_log2.begin(),
                                batch.estimates_log2.end());
    total.stats += batch.stats;
}

/** Fold one shard's adaptive batch into the accumulated PlanRun. */
void
mergeAdaptive(AdaptiveBatch &total, const AdaptiveBatch &batch)
{
    total.cert = batch.cert;
    total.results.insert(total.results.end(), batch.results.begin(),
                         batch.results.end());
    total.skipped.insert(total.skipped.end(), batch.skipped.begin(),
                         batch.skipped.end());
    total.estimates_log2.insert(total.estimates_log2.end(),
                                batch.estimates_log2.begin(),
                                batch.estimates_log2.end());
    mergeTiers(total.tiers, batch.tiers);
    total.certified += batch.certified;
    total.uncertified += batch.uncertified;
    total.screen_stats += batch.screen_stats;
}

[[noreturn]] void
unconsumed(const char *channel)
{
    throw std::logic_error(std::string("sink does not consume ") +
                           channel);
}

} // namespace

// --------------------------------------------------- ResultSink base

void
ResultSink::consumeResults(const WorkBlock &,
                           std::span<const EvalResult>)
{
    unconsumed("fixed results");
}

void
ResultSink::consumeScreened(const WorkBlock &,
                            const ScreenedPValueBatch &)
{
    unconsumed("screened batches");
}

void
ResultSink::consumeAdaptive(const WorkBlock &, const AdaptiveBatch &)
{
    unconsumed("adaptive batches");
}

void
ResultSink::consumePosteriors(const WorkBlock &,
                              std::span<const PosteriorResult>)
{
    unconsumed("posteriors");
}

void
ResultSink::consumeDecodes(const WorkBlock &,
                           std::span<const ViterbiResult>)
{
    unconsumed("decodes");
}

// ------------------------------------------------------- accumulate

void
AccumulateSink::consumeResults(const WorkBlock &,
                               std::span<const EvalResult> results)
{
    out_.results.insert(out_.results.end(), results.begin(),
                        results.end());
}

void
AccumulateSink::consumeScreened(const WorkBlock &,
                                const ScreenedPValueBatch &batch)
{
    mergeScreened(out_.screened, batch);
}

void
AccumulateSink::consumeAdaptive(const WorkBlock &,
                                const AdaptiveBatch &batch)
{
    mergeAdaptive(out_.adaptive, batch);
}

void
AccumulateSink::consumePosteriors(
    const WorkBlock &, std::span<const PosteriorResult> posteriors)
{
    out_.posteriors.insert(out_.posteriors.end(), posteriors.begin(),
                           posteriors.end());
}

void
AccumulateSink::consumeDecodes(const WorkBlock &,
                               std::span<const ViterbiResult> decodes)
{
    out_.decodes.insert(out_.decodes.end(), decodes.begin(),
                        decodes.end());
}

// ----------------------------------------------------- record sinks

void
RecordSink::consumeResults(const WorkBlock &,
                           std::span<const EvalResult> results)
{
    for (const EvalResult &result : results)
        emit(encodeResultRecord(result));
}

void
RecordSink::consumeScreened(const WorkBlock &,
                            const ScreenedPValueBatch &batch)
{
    for (size_t i = 0; i < batch.results.size(); ++i) {
        const uint32_t extra =
            (i < batch.skipped.size() && batch.skipped[i])
                ? io::result_flag_skipped
                : 0;
        emit(encodeResultRecord(batch.results[i], extra));
    }
}

void
RecordSink::consumeAdaptive(const WorkBlock &, const AdaptiveBatch &batch)
{
    for (size_t i = 0; i < batch.results.size(); ++i) {
        const EscalationResult &item = batch.results[i];
        uint32_t extra = 0;
        if (i < batch.skipped.size() && batch.skipped[i])
            extra |= io::result_flag_skipped;
        if (item.certified)
            extra |= io::result_flag_certified;
        emit(encodeResultRecord(item.result, extra));
    }
}

void
RecordSink::consumeDecodes(const WorkBlock &,
                           std::span<const ViterbiResult> decodes)
{
    for (const ViterbiResult &decode : decodes) {
        io::ShardResultRecord record =
            encodeResultRecord(decode.probability);
        record.aux = decode.first_underflow_step;
        record.path = decode.path;
        emit(record);
    }
}

ShardFileSink::ShardFileSink(const std::string &path,
                             PlanKernel kernel,
                             const std::string &format_id)
    : writer_(path, static_cast<uint32_t>(kernel), format_id)
{
}

void
ShardFileSink::emit(const io::ShardResultRecord &record)
{
    writer_.addResult(record);
}

void
ShardFileSink::finish()
{
    writer_.close();
}

// --------------------------------------------- record encode/decode

io::ShardResultRecord
encodeResultRecord(const EvalResult &result, uint32_t extra_flags)
{
    io::ShardResultRecord record;
    record.flags = extra_flags;
    if (result.invalid)
        record.flags |= io::result_flag_invalid;
    if (result.underflow)
        record.flags |= io::result_flag_underflow;
    const BigFloat &value = result.value;
    if (value.isNaN()) {
        record.flags |= io::result_flag_nan;
    } else if (value.isZero()) {
        record.flags |= io::result_flag_zero;
    } else {
        if (value.isNegative())
            record.flags |= io::result_flag_negative;
        // exponent() is the floor-log2 convention (exp_ - 1); store
        // the internal exponent so fromLimbs round-trips exactly.
        record.exp = value.exponent() + 1;
        record.limbs = value.mantissa();
    }
    return record;
}

EvalResult
decodeResultValue(const io::ShardResultRecord &record)
{
    EvalResult result;
    result.invalid = (record.flags & io::result_flag_invalid) != 0;
    result.underflow = (record.flags & io::result_flag_underflow) != 0;
    if ((record.flags & io::result_flag_nan) != 0)
        result.value = BigFloat::nan();
    else if ((record.flags & io::result_flag_zero) != 0)
        result.value = BigFloat::zero();
    else
        result.value = BigFloat::fromLimbs(
            (record.flags & io::result_flag_negative) != 0,
            record.exp, record.limbs);
    return result;
}

ResultShardData
readResultShard(const std::string &path)
{
    const io::ShardReader reader(path);
    if (reader.payload() != io::ShardPayload::Results)
        throw io::ShardError(path +
                             ": not a results shard (payload tag " +
                             std::to_string(static_cast<uint32_t>(
                                 reader.payload())) +
                             ")");
    const uint32_t kernel_tag = reader.resultKernel();
    if (kernel_tag < static_cast<uint32_t>(PlanKernel::PValue) ||
        kernel_tag > static_cast<uint32_t>(PlanKernel::Viterbi))
        throw io::ShardError(path + ": unknown result kernel tag " +
                             std::to_string(kernel_tag));

    ResultShardData out;
    out.kernel = static_cast<PlanKernel>(kernel_tag);
    out.format_id = reader.resultFormatId();
    out.skipped.resize(reader.size(), 0);
    out.certified.resize(reader.size(), 0);
    const bool viterbi = out.kernel == PlanKernel::Viterbi;
    if (viterbi)
        out.decodes.reserve(reader.size());
    else
        out.results.reserve(reader.size());
    for (size_t i = 0; i < reader.size(); ++i) {
        const io::ShardResultRecord record = reader.result(i);
        if ((record.flags & io::result_flag_skipped) != 0)
            out.skipped[i] = 1;
        if ((record.flags & io::result_flag_certified) != 0)
            out.certified[i] = 1;
        if (viterbi) {
            ViterbiResult decode;
            decode.path.assign(record.path.begin(),
                               record.path.end());
            decode.probability = decodeResultValue(record);
            decode.first_underflow_step = record.aux;
            out.decodes.push_back(std::move(decode));
        } else {
            out.results.push_back(decodeResultValue(record));
        }
    }
    return out;
}

} // namespace pstat::engine
