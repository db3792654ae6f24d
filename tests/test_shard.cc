/**
 * @file
 * Shard-file tests: write→mmap-read round trips (bit-exact payload
 * recovery, per-format kernel bit-identity on mapped views), the
 * full corruption matrix (truncation, bad magic, unsupported
 * version, unknown payload tag, CRC mismatch, record overrun,
 * trailing bytes), zero-record files, writer misuse, and every
 * CRC-32 kernel against a bit-at-a-time reference.
 */

#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "engine/format_registry.hh"
#include "io/shard.hh"
#include "pbd/dataset.hh"
#include "pbd/pbd.hh"
#include "stats/rng.hh"
#include "shard_fixture.hh"
#include "test_tmp.hh"

namespace
{

using namespace pstat;
using test::tempPath;

/** A small column mix incl. the k = 0 and empty-column edges. */
std::vector<pbd::Column>
makeColumns()
{
    std::vector<pbd::Column> columns;
    stats::Rng rng(20260729);
    for (int i = 0; i < 12; ++i) {
        pbd::Column col;
        const int n = 5 + 7 * i;
        col.success_probs.reserve(n);
        for (int j = 0; j < n; ++j)
            col.success_probs.push_back(
                std::pow(10.0, -rng.uniform(0.5, 8.0)));
        col.k = i % 5;
        columns.push_back(std::move(col));
    }
    columns.push_back(pbd::Column{}); // empty: n = 0, k = 0
    pbd::Column zero_k;
    zero_k.success_probs = {0.25, 0.5};
    zero_k.k = 0;
    columns.push_back(std::move(zero_k));
    return columns;
}

/** The raw bytes of a file, for corruption surgery. */
std::vector<unsigned char>
slurp(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    EXPECT_NE(f, nullptr);
    std::vector<unsigned char> bytes;
    unsigned char buf[4096];
    size_t got = 0;
    while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0)
        bytes.insert(bytes.end(), buf, buf + got);
    std::fclose(f);
    return bytes;
}

void
spit(const std::string &path, const std::vector<unsigned char> &bytes)
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f),
              bytes.size());
    ASSERT_EQ(std::fclose(f), 0);
}

/** EXPECT a ShardError whose message mentions `needle`. */
void
expectShardError(const std::string &path, const std::string &needle)
{
    try {
        const io::ShardReader reader(path);
        FAIL() << "expected ShardError mentioning \"" << needle
               << "\" opening " << path;
    } catch (const io::ShardError &error) {
        EXPECT_NE(std::string(error.what()).find(needle),
                  std::string::npos)
            << "message was: " << error.what();
    }
}

TEST(Shard, RoundTripRecoversEveryBit)
{
    const auto columns = makeColumns();
    const std::string path = tempPath("roundtrip.shard");
    io::writeColumnShard(path, columns);

    const io::ShardReader reader(path);
    EXPECT_EQ(reader.payload(), io::ShardPayload::Columns);
    EXPECT_EQ(reader.version(), io::shard_version);
    ASSERT_EQ(reader.size(), columns.size());
    EXPECT_EQ(reader.fileBytes(),
              sizeof(io::ShardHeader) + reader.payloadBytes() +
                  io::shard_trailer_bytes);

    for (size_t i = 0; i < columns.size(); ++i) {
        const pbd::ColumnView view = reader.column(i);
        EXPECT_EQ(view.k, columns[i].k);
        ASSERT_EQ(view.success_probs.size(),
                  columns[i].success_probs.size());
        for (size_t j = 0; j < view.success_probs.size(); ++j) {
            // Bit-exact, not value-equal: the format must round-trip
            // every payload (NaN payloads, signed zeros) unchanged.
            EXPECT_EQ(
                std::bit_cast<uint64_t>(view.success_probs[j]),
                std::bit_cast<uint64_t>(columns[i].success_probs[j]));
        }
    }

    const auto materialized = io::readColumnShard(path);
    ASSERT_EQ(materialized.size(), columns.size());
    for (size_t i = 0; i < columns.size(); ++i) {
        EXPECT_EQ(materialized[i].k, columns[i].k);
        EXPECT_EQ(materialized[i].success_probs,
                  columns[i].success_probs);
    }
}

TEST(Shard, MappedViewsAreZeroCopyAndAligned)
{
    const auto columns = makeColumns();
    const std::string path = tempPath("aligned.shard");
    io::writeColumnShard(path, columns);

    const io::ShardReader reader(path);
    for (size_t i = 0; i < reader.size(); ++i) {
        const pbd::ColumnView view = reader.column(i);
        if (view.success_probs.empty())
            continue;
        // Zero-copy means the span points into the mapping — and the
        // doubles must be naturally aligned there.
        EXPECT_EQ(reinterpret_cast<uintptr_t>(
                      view.success_probs.data()) %
                      alignof(double),
                  0u);
    }
}

TEST(Shard, RoundTripBitIdenticalPValuePerRegisteredFormat)
{
    // The streamed-evaluation contract starts here: the exact DP on
    // a mapped view must be bit-identical to the same DP on the
    // in-memory column, for every registered format.
    const auto columns = makeColumns();
    const std::string path = tempPath("performat.shard");
    io::writeColumnShard(path, columns);
    const io::ShardReader reader(path);

    for (const auto *format :
         engine::FormatRegistry::instance().all()) {
        for (size_t i = 0; i < columns.size(); ++i) {
            const auto want = format->pbdPValue(
                columns[i].success_probs, columns[i].k,
                engine::SumPolicy::Plain);
            const pbd::ColumnView view = reader.column(i);
            const auto got = format->pbdPValue(
                view.success_probs, view.k,
                engine::SumPolicy::Plain);
            EXPECT_TRUE(got.value == want.value)
                << format->id() << " column " << i;
            EXPECT_EQ(got.invalid, want.invalid) << format->id();
            EXPECT_EQ(got.underflow, want.underflow) << format->id();
        }
    }
}

TEST(Shard, SequenceRoundTripIncludingOddLengthsAndEmpty)
{
    const std::vector<std::vector<int>> sequences = {
        {0, 1, 2, 3, 2, 1, 0}, // odd length: padded record
        {5, 4, 3, 2},          // even length
        {},                    // empty sequence
        {7},
    };
    const std::string path = tempPath("sequences.shard");
    io::ShardWriter writer(path, io::ShardPayload::Sequences);
    for (const auto &seq : sequences)
        writer.addSequence(seq);
    writer.close();

    const io::ShardReader reader(path);
    EXPECT_EQ(reader.payload(), io::ShardPayload::Sequences);
    ASSERT_EQ(reader.size(), sequences.size());
    for (size_t i = 0; i < sequences.size(); ++i) {
        const auto view = reader.sequence(i);
        ASSERT_EQ(view.size(), sequences[i].size()) << "seq " << i;
        for (size_t j = 0; j < view.size(); ++j)
            EXPECT_EQ(view[j], sequences[i][j]);
    }
}

TEST(Shard, ZeroRecordFileRoundTrips)
{
    const std::string path = tempPath("empty.shard");
    io::ShardWriter writer(path, io::ShardPayload::Columns);
    writer.close();

    const io::ShardReader reader(path);
    EXPECT_EQ(reader.size(), 0u);
    EXPECT_EQ(reader.payloadBytes(), 0u);
    EXPECT_EQ(reader.fileBytes(),
              sizeof(io::ShardHeader) + io::shard_trailer_bytes);
}

TEST(Shard, TruncatedHeaderIsRejected)
{
    const std::string path = tempPath("trunc-header.shard");
    io::writeColumnShard(path, makeColumns());
    auto bytes = slurp(path);
    bytes.resize(10);
    spit(path, bytes);
    expectShardError(path, "truncated");
}

TEST(Shard, TruncatedPayloadIsRejected)
{
    const std::string path = tempPath("trunc-payload.shard");
    io::writeColumnShard(path, makeColumns());
    auto bytes = slurp(path);
    bytes.resize(bytes.size() - 64); // drop payload tail + trailer
    spit(path, bytes);
    expectShardError(path, "truncated");
}

TEST(Shard, WrongMagicIsRejected)
{
    const std::string path = tempPath("magic.shard");
    io::writeColumnShard(path, makeColumns());
    auto bytes = slurp(path);
    bytes[0] ^= 0xff;
    spit(path, bytes);
    expectShardError(path, "magic");
}

TEST(Shard, UnsupportedVersionIsRejected)
{
    const std::string path = tempPath("version.shard");
    io::writeColumnShard(path, makeColumns());
    auto bytes = slurp(path);
    const uint32_t future = 99;
    std::memcpy(bytes.data() + 8, &future, sizeof(future));
    spit(path, bytes);
    expectShardError(path, "version");
}

TEST(Shard, UnknownPayloadTagIsRejected)
{
    const std::string path = tempPath("tag.shard");
    io::writeColumnShard(path, makeColumns());
    auto bytes = slurp(path);
    const uint32_t bogus = 77;
    std::memcpy(bytes.data() + 12, &bogus, sizeof(bogus));
    spit(path, bytes);
    expectShardError(path, "payload tag");
}

TEST(Shard, CorruptedPayloadFailsTheCrc)
{
    const std::string path = tempPath("crc.shard");
    io::writeColumnShard(path, makeColumns());
    auto bytes = slurp(path);
    bytes[sizeof(io::ShardHeader) + 40] ^= 0x01; // one payload bit
    spit(path, bytes);
    expectShardError(path, "CRC");
}

TEST(Shard, CorruptedTrailerUpperBytesFailTheCrc)
{
    // The trailer is the CRC zero-extended to 8 bytes; its upper half
    // is part of the check, as in decodePlan and FrameReader.
    const std::string path = tempPath("trailer.shard");
    pbd::Column column;
    column.success_probs = {0.25, 0.5};
    column.k = 1;
    io::writeColumnShard(path, std::span(&column, 1));
    auto bytes = slurp(path);
    bytes.back() ^= 0x5a;
    spit(path, bytes);
    expectShardError(path, "CRC");
}

TEST(Shard, RecordOverrunIsRejectedEvenWithAValidCrc)
{
    // Craft corruption the CRC cannot catch: inflate the first
    // record's read count, then recompute the trailer. Only the
    // record walk can reject this file.
    const std::string path = tempPath("overrun.shard");
    io::writeColumnShard(path, makeColumns());
    auto bytes = slurp(path);
    const uint32_t huge = 1u << 24;
    std::memcpy(bytes.data() + sizeof(io::ShardHeader), &huge,
                sizeof(huge));
    const size_t payload_bytes =
        bytes.size() - sizeof(io::ShardHeader) -
        io::shard_trailer_bytes;
    const uint64_t crc = io::crc32(
        0, bytes.data() + sizeof(io::ShardHeader), payload_bytes);
    std::memcpy(bytes.data() + bytes.size() - io::shard_trailer_bytes,
                &crc, sizeof(crc));
    spit(path, bytes);
    expectShardError(path, "overruns");
}

TEST(Shard, HugeHeaderItemCountIsRejectedNotAllocated)
{
    // The header sits outside the CRC, so a corrupted item_count
    // must be rejected by the payload bound — not surface as
    // bad_alloc from reserving 2^56 offsets.
    const std::string path = tempPath("itemcount.shard");
    io::writeColumnShard(path, makeColumns());
    auto bytes = slurp(path);
    const uint64_t huge = uint64_t{1} << 56;
    std::memcpy(bytes.data() + 16, &huge, sizeof(huge));
    spit(path, bytes);
    expectShardError(path, "item count");
}

TEST(Shard, ReadColumnShardRejectsOtherPayloads)
{
    // readColumnShard walks column() over every record, which takes
    // the payload kind on trust: a shard of any other kind must fail
    // first, naming its payload.
    const std::string sequences = tempPath("not-columns-seq.shard");
    io::ShardWriter seq_writer(sequences, io::ShardPayload::Sequences);
    seq_writer.addSequence(std::vector<int>{0, 1, 2});
    seq_writer.close();

    const std::string results = tempPath("not-columns-res.shard");
    io::ShardWriter res_writer(results, 1, "binary64");
    io::ShardResultRecord zero;
    zero.flags = io::result_flag_zero;
    res_writer.addResult(zero);
    res_writer.close();

    for (const auto &[path, name] :
         {std::pair{sequences, "sequences"}, std::pair{results, "results"}}) {
        try {
            (void)io::readColumnShard(path);
            ADD_FAILURE() << name << " shard read as columns";
        } catch (const io::ShardError &error) {
            EXPECT_NE(std::string(error.what()).find(name),
                      std::string::npos)
                << error.what();
        }
    }
}

TEST(Shard, RecordAccessorsRejectOtherPayloads)
{
    // The payload kind comes from the file, so every record accessor
    // checks it in every build (not with an assert) and names the
    // kind it found, in readColumnShard's wording.
    const std::string columns = tempPath("kind-columns.shard");
    io::writeColumnShard(columns, makeColumns());

    const std::string sequences = tempPath("kind-sequences.shard");
    io::ShardWriter seq_writer(sequences, io::ShardPayload::Sequences);
    seq_writer.addSequence(std::vector<int>{0, 1, 2, 3, 0, 1});
    seq_writer.addSequence(std::vector<int>{2});
    seq_writer.close();

    const std::string results = tempPath("kind-results.shard");
    io::ShardWriter res_writer(results, 1, "binary64");
    io::ShardResultRecord zero;
    zero.flags = io::result_flag_zero;
    res_writer.addResult(zero);
    res_writer.close();

    const io::ShardReader cols(columns);
    const io::ShardReader seqs(sequences);
    const io::ShardReader res(results);
    const auto refused = [](const char *call,
                            const io::ShardReader &reader,
                            const std::function<void()> &read,
                            const std::string &want) {
        const std::string diagnostic =
            reader.path() + ": " +
            io::shardPayloadName(reader.payload()) + " shard, not a " +
            want + " shard";
        try {
            read();
            ADD_FAILURE() << call << " read a "
                          << io::shardPayloadName(reader.payload())
                          << " shard";
        } catch (const io::ShardError &error) {
            EXPECT_EQ(std::string(error.what()), diagnostic) << call;
        }
    };
    for (const io::ShardReader *reader : {&seqs, &res})
        refused("column()", *reader, [&] { (void)reader->column(0); },
                "columns");
    for (const io::ShardReader *reader : {&cols, &res})
        refused("sequence()", *reader,
                [&] { (void)reader->sequence(0); }, "sequences");
    for (const io::ShardReader *reader : {&cols, &seqs}) {
        refused("result()", *reader, [&] { (void)reader->result(0); },
                "results");
        refused("resultKernel()", *reader,
                [&] { (void)reader->resultKernel(); }, "results");
        refused("resultFormatId()", *reader,
                [&] { (void)reader->resultFormatId(); }, "results");
    }

    // Each accessor still reads its own kind.
    EXPECT_EQ(cols.column(1).k, 1);
    EXPECT_EQ(cols.column(1).success_probs.size(), 12u);
    EXPECT_EQ(seqs.sequence(1).size(), 1u);
    EXPECT_EQ(res.result(0).flags, io::result_flag_zero);
    EXPECT_EQ(res.resultKernel(), 1u);
    EXPECT_EQ(res.resultFormatId(), "binary64");
}

TEST(Shard, MissingFileIsAShardError)
{
    expectShardError(tempPath("does-not-exist.shard"),
                     "cannot open");
}

TEST(Shard, WriterRejectsPayloadKindMisuse)
{
    io::ShardWriter columns(tempPath("misuse-cols.shard"),
                            io::ShardPayload::Columns);
    const std::vector<int> seq = {1, 2, 3};
    EXPECT_THROW(columns.addSequence(seq), std::logic_error);
    columns.close();

    io::ShardWriter sequences(tempPath("misuse-seqs.shard"),
                              io::ShardPayload::Sequences);
    EXPECT_THROW(sequences.add(pbd::Column{}), std::logic_error);
    sequences.close();
}

TEST(Shard, Crc32MatchesKnownVectors)
{
    // The classic check value of CRC-32/ISO-HDLC ("123456789").
    EXPECT_EQ(io::crc32(0, "123456789", 9), 0xcbf43926u);
    EXPECT_EQ(io::crc32(0, "", 0), 0u);
    // Resumable: one pass equals two chained passes.
    const uint32_t once = io::crc32(0, "streaming", 9);
    const uint32_t chained =
        io::crc32(io::crc32(0, "strea", 5), "ming", 4);
    EXPECT_EQ(once, chained);
}

/**
 * CRC-32 from its definition: the reflected IEEE polynomial applied
 * one bit at a time, with no table.
 */
uint32_t
crc32Bitwise(uint32_t crc, const unsigned char *data, size_t len)
{
    crc = ~crc;
    for (size_t i = 0; i < len; ++i) {
        crc ^= data[i];
        for (int bit = 0; bit < 8; ++bit)
            crc = (crc >> 1) ^ ((crc & 1u) != 0 ? 0xedb88320u : 0u);
    }
    return ~crc;
}

TEST(Shard, Crc32EveryKernelMatchesTheBitwiseReference)
{
    // Lengths 0-300 cross the 8-byte slicing step and the 16- and
    // 64-byte folding boundaries; 4 KiB and 64 KiB + 13 run the
    // four-lane fold for many steps and then leave a tail.
    stats::Rng rng(20261017);
    std::vector<unsigned char> buf((64 << 10) + 13 + 16);
    for (auto &byte : buf)
        byte = static_cast<unsigned char>(rng());
    std::vector<size_t> lengths;
    for (size_t len = 0; len <= 300; ++len)
        lengths.push_back(len);
    lengths.push_back(4 << 10);
    lengths.push_back((64 << 10) + 13);

    for (const simd::Isa isa : simd::supportedIsas()) {
        SCOPED_TRACE(simd::isaName(isa));
        EXPECT_EQ(io::crc32(0, "123456789", 9, isa), 0xcbf43926u);
        for (const size_t len : lengths) {
            for (size_t offset = 0; offset < 16; ++offset) {
                const unsigned char *data = buf.data() + offset;
                const auto running = static_cast<uint32_t>(rng());
                ASSERT_EQ(io::crc32(running, data, len, isa),
                          crc32Bitwise(running, data, len))
                    << "len " << len << " offset " << offset
                    << " running crc " << running;
            }
        }
        // Resuming at every split point of a 200-byte buffer gives
        // the one-pass value, across the 16- and 64-byte boundaries.
        const uint32_t whole = crc32Bitwise(0, buf.data(), 200);
        for (size_t split = 0; split <= 200; ++split) {
            const uint32_t head = io::crc32(0, buf.data(), split, isa);
            ASSERT_EQ(io::crc32(head, buf.data() + split, 200 - split,
                                isa),
                      whole)
                << "split " << split;
        }
    }
}

} // namespace
