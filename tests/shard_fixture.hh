/**
 * @file
 * One-call shard writer for the test suites.
 *
 * Shipped code writes shards record by record through io::ShardWriter
 * (pstat gen, the result sinks); only tests hold a whole column list
 * and want it on disk in one call. It keeps the library namespace so
 * a test reads the same as when it lived in src/io.
 */

#ifndef PSTAT_TESTS_SHARD_FIXTURE_HH
#define PSTAT_TESTS_SHARD_FIXTURE_HH

#include <span>
#include <string>

#include "io/shard.hh"
#include "pbd/dataset.hh"

namespace pstat::io
{

/** Write every column, in order, as one Columns shard file. */
inline void
writeColumnShard(const std::string &path,
                 std::span<const pbd::Column> columns)
{
    ShardWriter writer(path, ShardPayload::Columns);
    for (const auto &column : columns)
        writer.add(column);
    writer.close();
}

} // namespace pstat::io

#endif // PSTAT_TESTS_SHARD_FIXTURE_HH
