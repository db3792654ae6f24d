/**
 * @file
 * Seeded byte-mutation fuzzer of every decoder that takes bytes from
 * outside the process: engine::decodePlan, serve::FrameReader with
 * decodeRequestBody / decodeResponseBody, and the io::ShardReader
 * open. Each target mutates a corpus of valid encodings (zero-length
 * strings, columns, paths and record lists included) and requires
 * every outcome to be a clean decode or the layer's typed error
 * (PlanError, FrameError, ShardError): never another exception, a
 * crash, or a sanitizer report. Half of the mutants are resealed
 * with io::crc32, so they pass the checksum and reach the field
 * parsers. Every case runs from its own seed (prop::caseSeed); a
 * failure prints it, and the target's *Case(seed) function replays
 * that one case.
 */

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <iterator>
#include <stdexcept>
#include <string>
#include <typeinfo>
#include <utility>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "engine/plan.hh"
#include "io/shard.hh"
#include "prop_util.hh"
#include "serve/frame.hh"
#include "stats/rng.hh"
#include "test_tmp.hh"

namespace
{

using namespace pstat;
using Bytes = std::vector<uint8_t>;

/** Mutants per target: enough to hit every field, quick under ASan. */
constexpr size_t fuzz_cases = 3000;

/** Frame bodies past this are rejected at the header, unallocated. */
constexpr uint64_t fuzz_max_body = 64 << 10;

/** One random edit: a bit, a byte, an edge-case word, or a resize. */
void
mutateOnce(Bytes &bytes, stats::Rng &rng)
{
    // Length, count and tag fields are 4 or 8 bytes wide; these are
    // the values that break a careless bound check.
    static constexpr uint64_t edge_words[] = {
        0,          1,           7,          8,
        0xff,       0xffff,      0x7fffffff, 0x80000000,
        0xffffffff, 1ull << 32,  1ull << 56, ~0ull};
    const size_t size = bytes.size();
    switch (rng.below(6)) {
    case 0:
        if (size > 0)
            bytes[rng.below(size)] ^=
                static_cast<uint8_t>(1u << rng.below(8));
        break;
    case 1:
        if (size > 0)
            bytes[rng.below(size)] = static_cast<uint8_t>(rng());
        break;
    case 2: {
        const uint64_t word =
            edge_words[rng.below(std::size(edge_words))];
        const size_t width = rng.chance(0.5) ? 4 : 8;
        if (size >= width) {
            size_t at = rng.below(size - width + 1);
            if (rng.chance(0.5))
                at &= ~size_t{3}; // most fields sit on the 4-byte grid
            std::memcpy(bytes.data() + at, &word, width);
        }
        break;
    }
    case 3:
        bytes.resize(rng.below(size + 1));
        break;
    case 4: {
        const size_t at = rng.below(size + 1);
        Bytes extra(1 + rng.below(16));
        for (auto &byte : extra)
            byte = static_cast<uint8_t>(rng());
        bytes.insert(bytes.begin() + static_cast<ptrdiff_t>(at),
                     extra.begin(), extra.end());
        break;
    }
    default:
        if (size > 0) {
            const size_t at = rng.below(size);
            const size_t len = std::min<size_t>(1 + rng.below(16),
                                                size - at);
            bytes.erase(bytes.begin() + static_cast<ptrdiff_t>(at),
                        bytes.begin() +
                            static_cast<ptrdiff_t>(at + len));
        }
        break;
    }
}

/** One to four edits of a copy of `original`. */
Bytes
mutate(const Bytes &original, stats::Rng &rng)
{
    Bytes bytes = original;
    for (uint64_t edits = 1 + rng.below(4); edits > 0; --edits)
        mutateOnce(bytes, rng);
    return bytes;
}

/** Write `crc` zero-extended into the 8 bytes at `at`. */
void
putTrailer(Bytes &bytes, size_t at, uint32_t crc)
{
    const uint64_t trailer = crc;
    std::memcpy(bytes.data() + at, &trailer, sizeof(trailer));
}

/** How one mutant ended. */
enum class Outcome
{
    Clean,      //!< decoded without error
    CrcError,   //!< a typed error from the checksum
    FieldError, //!< any other typed error
};

/** Classify a typed decoder error by its message. */
Outcome
typedError(const std::exception &error)
{
    return std::string(error.what()).find("CRC") != std::string::npos
               ? Outcome::CrcError
               : Outcome::FieldError;
}

/**
 * Run `fuzz_cases` cases of one target. A case that throws anything
 * but its layer's typed error fails with the seed that replays it.
 * Resealed mutants must reach past the checksum at least once, or
 * the fuzzer would only ever be testing the CRC.
 */
void
sweep(uint64_t sweep_seed, const char *replay,
      const std::function<Outcome(uint64_t, bool)> &fuzz_case)
{
    size_t past_checksum = 0;
    for (size_t i = 0; i < fuzz_cases; ++i) {
        const uint64_t seed = prop::caseSeed(sweep_seed, i);
        const bool reseal = i % 2 == 0;
        try {
            if (fuzz_case(seed, reseal) != Outcome::CrcError && reseal)
                ++past_checksum;
        } catch (const std::exception &error) {
            ADD_FAILURE() << "untyped " << typeid(error).name()
                          << " \"" << error.what() << "\"; replay with "
                          << replay << "(0x" << std::hex << seed
                          << std::dec << ", " << reseal << ")";
        }
    }
    EXPECT_GT(past_checksum, 0u);
}

// ------------------------------------------------------------ plans

/** Encoded plans, from all-default (every string empty) to full. */
const std::vector<Bytes> &
planCorpus()
{
    static const std::vector<Bytes> corpus = [] {
        engine::EvalPlan defaults;
        engine::EvalPlan fixed;
        fixed.format_id = "binary64";
        engine::EvalPlan adaptive;
        adaptive.policy = engine::PlanPolicy::ScreenedAdaptive;
        adaptive.source = engine::PlanSource::ShardStream;
        adaptive.ladder_ids = {"binary32", "", "scaled_dd"};
        adaptive.cert.threshold_log2 = -200.0;
        adaptive.cert.tol_rel_log2 = -40.0;
        adaptive.shard_paths = {"a.shard", ""};
        adaptive.sum = engine::SumPolicy::Compensated;
        adaptive.renormalize = true;
        return std::vector<Bytes>{engine::encodePlan(defaults),
                                  engine::encodePlan(fixed),
                                  engine::encodePlan(adaptive)};
    }();
    return corpus;
}

Outcome
planCase(uint64_t seed, bool reseal)
{
    stats::Rng rng(seed);
    const auto &corpus = planCorpus();
    Bytes bytes = mutate(corpus[rng.below(corpus.size())], rng);
    if (reseal && bytes.size() >= 8)
        putTrailer(bytes, bytes.size() - 8,
                   io::crc32(0, bytes.data(), bytes.size() - 8));
    try {
        (void)engine::decodePlan(bytes);
        return Outcome::Clean;
    } catch (const engine::PlanError &error) {
        return typedError(error);
    }
}

TEST(DecoderFuzz, PlanDecodeIsCleanOrPlanError)
{
    sweep(0x706c616e, "planCase", planCase);
}

// ----------------------------------------------------------- frames

/** A whole frame as it crosses the wire: header, body, trailer. */
Bytes
frameBytes(serve::FrameType type, const Bytes &body)
{
    serve::FrameHeader header{};
    std::memcpy(header.magic, serve::frame_magic,
                sizeof(serve::frame_magic));
    header.version = serve::frame_version;
    header.type = static_cast<uint32_t>(type);
    header.body_bytes = body.size();
    Bytes bytes(sizeof(header) + body.size() +
                serve::frame_trailer_bytes);
    std::memcpy(bytes.data(), &header, sizeof(header));
    if (!body.empty())
        std::memcpy(bytes.data() + sizeof(header), body.data(),
                    body.size());
    putTrailer(bytes, sizeof(header) + body.size(),
               io::crc32(0, body.data(), body.size()));
    return bytes;
}

/** Request and response frames, with empty columns, paths, labels. */
const std::vector<Bytes> &
frameCorpus()
{
    static const std::vector<Bytes> corpus = [] {
        serve::ServeRequest empty_request;
        serve::ServeRequest request;
        request.id = 7;
        request.deadline_ms = 250;
        request.plan.format_id = "binary64";
        request.columns.resize(3);
        request.columns[1].success_probs = {0.01, 0.02, 0.5};
        request.columns[1].k = 2;
        request.columns[2].success_probs = {1e-300};

        serve::ServeResponse rejected;
        rejected.id = 9;
        rejected.status = serve::RequestStatus::Rejected;
        rejected.message = "queue full";
        serve::ServeResponse ok;
        ok.id = 7;
        ok.format_id = "binary64";
        ok.records.resize(3);
        ok.records[0].flags = io::result_flag_zero;
        ok.records[1].exp = -5;
        ok.records[1].limbs[3] = 1ull << 63;
        ok.records[1].path = {0, 1, 1};
        ok.records[2].flags = io::result_flag_nan;
        ok.records[2].path = {2, 0};

        using serve::FrameType;
        return std::vector<Bytes>{
            frameBytes(FrameType::Request,
                       serve::encodeRequestBody(empty_request)),
            frameBytes(FrameType::Request,
                       serve::encodeRequestBody(request)),
            frameBytes(FrameType::Response,
                       serve::encodeResponseBody(rejected)),
            frameBytes(FrameType::Response,
                       serve::encodeResponseBody(ok)),
        };
    }();
    return corpus;
}

/** A pipe whose open ends close with it. */
struct Pipe
{
    int fds[2] = {-1, -1};
    Pipe()
    {
        if (::pipe(fds) != 0)
            throw std::runtime_error("pipe failed");
    }
    ~Pipe()
    {
        for (const int fd : fds)
            if (fd >= 0)
                ::close(fd);
    }
    Pipe(const Pipe &) = delete;
    Pipe &operator=(const Pipe &) = delete;
};

/** A FrameReader over a pipe holding `bytes`, then the body decoder. */
Outcome
decodeFrame(const Bytes &bytes)
{
    Pipe pipe;
    // The corpus frames are far below the pipe's capacity, so the
    // whole mutant fits before the reader starts.
    if (::write(pipe.fds[1], bytes.data(), bytes.size()) !=
        static_cast<ssize_t>(bytes.size()))
        throw std::runtime_error("short pipe write");
    ::close(std::exchange(pipe.fds[1], -1)); // end of stream
    try {
        const auto frame =
            serve::FrameReader(pipe.fds[0]).next(fuzz_max_body);
        if (frame && frame->type == serve::FrameType::Request)
            (void)serve::decodeRequestBody(frame->body);
        else if (frame)
            (void)serve::decodeResponseBody(frame->body);
        return Outcome::Clean;
    } catch (const serve::FrameError &error) {
        return typedError(error);
    }
}

Outcome
frameCase(uint64_t seed, bool reseal)
{
    stats::Rng rng(seed);
    const auto &corpus = frameCorpus();
    Bytes bytes = mutate(corpus[rng.below(corpus.size())], rng);
    constexpr size_t envelope =
        sizeof(serve::FrameHeader) + serve::frame_trailer_bytes;
    if (reseal && bytes.size() >= envelope) {
        // Declare the body that is there and checksum it.
        const uint64_t body_bytes = bytes.size() - envelope;
        std::memcpy(bytes.data() + offsetof(serve::FrameHeader,
                                            body_bytes),
                    &body_bytes, sizeof(body_bytes));
        const uint8_t *body = bytes.data() + sizeof(serve::FrameHeader);
        putTrailer(bytes, bytes.size() - serve::frame_trailer_bytes,
                   io::crc32(0, body, body_bytes));
    }
    return decodeFrame(bytes);
}

TEST(DecoderFuzz, FrameDecodeIsCleanOrFrameError)
{
    sweep(0x6672616d65, "frameCase", frameCase);
}

// ----------------------------------------------------------- shards

/** The raw bytes of a file. */
Bytes
slurp(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (f == nullptr)
        throw std::runtime_error("cannot read " + path);
    Bytes bytes;
    uint8_t buf[4096];
    size_t got = 0;
    while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0)
        bytes.insert(bytes.end(), buf, buf + got);
    std::fclose(f);
    return bytes;
}

void
spit(const std::string &path, const Bytes &bytes)
{
    // A fresh file per case: on ext4, truncating the last case's
    // file in place waits for its writeback, tens of ms per case.
    std::remove(path.c_str());
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (f == nullptr ||
        std::fwrite(bytes.data(), 1, bytes.size(), f) != bytes.size() ||
        std::fclose(f) != 0)
        throw std::runtime_error("cannot write " + path);
}

/** Shards of every payload kind, incl. empty records and no records. */
const std::vector<Bytes> &
shardCorpus()
{
    static const std::vector<Bytes> corpus = [] {
        const std::string path = test::tempPath("fuzz-corpus.shard");
        std::vector<Bytes> out;

        io::ShardWriter empty(path, io::ShardPayload::Columns);
        empty.close();
        out.push_back(slurp(path));

        io::ShardWriter columns(path, io::ShardPayload::Columns);
        columns.add(pbd::Column{});
        columns.add(pbd::Column{{0.25, 0.5, 1e-9}, 1});
        columns.close();
        out.push_back(slurp(path));

        io::ShardWriter sequences(path, io::ShardPayload::Sequences);
        sequences.addSequence({});
        sequences.addSequence(std::vector<int>{0, 1, 2});
        sequences.addSequence(std::vector<int>{3, 3});
        sequences.close();
        out.push_back(slurp(path));

        io::ShardWriter results(path, 1, "");
        io::ShardResultRecord zero;
        zero.flags = io::result_flag_zero;
        results.addResult(zero);
        io::ShardResultRecord value;
        value.exp = -5;
        value.limbs[3] = 1ull << 63;
        const std::vector<int> decode_path = {0, 1, 1};
        value.path = decode_path;
        results.addResult(value);
        results.close();
        out.push_back(slurp(path));

        io::ShardWriter labelled(path, 2, "binary64");
        labelled.close();
        out.push_back(slurp(path));
        return out;
    }();
    return corpus;
}

/** Where openShard leaves what it read. */
volatile uint64_t served_sink = 0;

/** Open a mutant and, when it opens, read every record it serves. */
Outcome
openShard(const std::string &path)
{
    try {
        const io::ShardReader reader(path);
        uint64_t sink = 0; // touch every served byte
        for (size_t i = 0; i < reader.size(); ++i) {
            switch (reader.payload()) {
            case io::ShardPayload::Columns:
                for (const double p : reader.column(i).success_probs)
                    sink += p > 0.5;
                break;
            case io::ShardPayload::Sequences:
                for (const int symbol : reader.sequence(i))
                    sink += static_cast<uint64_t>(symbol);
                break;
            case io::ShardPayload::Results:
                for (const int state : reader.result(i).path)
                    sink += static_cast<uint64_t>(state);
                break;
            }
        }
        if (reader.payload() == io::ShardPayload::Results)
            sink += reader.resultFormatId().size();
        served_sink = sink; // keeps the reads above from being elided
        return Outcome::Clean;
    } catch (const io::ShardError &error) {
        return typedError(error);
    }
}

Outcome
shardCase(uint64_t seed, bool reseal)
{
    stats::Rng rng(seed);
    const auto &corpus = shardCorpus();
    Bytes bytes = mutate(corpus[rng.below(corpus.size())], rng);
    constexpr size_t envelope =
        sizeof(io::ShardHeader) + io::shard_trailer_bytes;
    if (reseal && bytes.size() >= envelope) {
        // Declare the payload that is there and checksum it.
        const uint64_t payload_bytes = bytes.size() - envelope;
        std::memcpy(bytes.data() +
                        offsetof(io::ShardHeader, payload_bytes),
                    &payload_bytes, sizeof(payload_bytes));
        const uint8_t *payload = bytes.data() + sizeof(io::ShardHeader);
        putTrailer(bytes, bytes.size() - io::shard_trailer_bytes,
                   io::crc32(0, payload, payload_bytes));
    }
    const std::string path = test::tempPath("fuzz-mutant.shard");
    spit(path, bytes);
    return openShard(path);
}

TEST(DecoderFuzz, ShardOpenIsCleanOrShardError)
{
    sweep(0x7368617264, "shardCase", shardCase);
}

} // namespace
