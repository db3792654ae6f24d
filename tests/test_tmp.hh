/**
 * @file
 * Per-process temporary paths for the test suites.
 *
 * gtest_discover_tests registers every test as its own ctest entry,
 * so `ctest -j` runs many test processes of one suite side by side.
 * Fixed file names directly under ::testing::TempDir() are shared by
 * all of them: one process's SetUpTestSuite could rewrite a shard
 * that a sibling process had mapped, and the reader died of SIGBUS.
 * tempPath() puts every file under ::testing::TempDir() +
 * "pstat-<pid>/", a directory no other process uses, and the
 * directory is removed when the process exits.
 */

#ifndef PSTAT_TESTS_TEST_TMP_HH
#define PSTAT_TESTS_TEST_TMP_HH

#include <filesystem>
#include <string>
#include <system_error>

#include <unistd.h>

#include <gtest/gtest.h>

namespace pstat::test
{

/** This process's private temp directory, with a trailing '/'. */
inline const std::string &
tempDir()
{
    struct Dir
    {
        std::string path = ::testing::TempDir() + "pstat-" +
                           std::to_string(::getpid()) + "/";
        Dir()
        {
            // A directory left by a crashed process with the same pid
            // holds nothing this process should read.
            std::error_code ec;
            std::filesystem::remove_all(path, ec);
            std::filesystem::create_directories(path);
        }
        ~Dir()
        {
            std::error_code ec;
            std::filesystem::remove_all(path, ec);
        }
    };
    static const Dir dir;
    return dir.path;
}

/** `name` inside this process's private temp directory. */
inline std::string
tempPath(const std::string &name)
{
    return tempDir() + name;
}

} // namespace pstat::test

#endif // PSTAT_TESTS_TEST_TMP_HH
