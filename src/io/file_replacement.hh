/**
 * @file
 * Replacing an output file whole, never truncating it in place.
 *
 * Every file pstat writes (shards, result shards, plans) may already
 * exist, and some other process may have it open or memory-mapped
 * (ShardReader maps its file). Truncating that file in place would
 * pull the pages out from under a mapping (SIGBUS), and on ext4 the
 * truncate itself waits for the old data to be written back first.
 * FileReplacement instead writes the new bytes to a fresh sibling
 * `<path>.tmp.<pid>.<n>` and swaps it in on commit() with
 * renameat2(RENAME_EXCHANGE), then unlinks the displaced old inode.
 * Plain rename() is used only when there is no old file (ENOENT) or
 * the filesystem cannot exchange (EINVAL).
 *
 * The contract, for every writer built on it:
 *  - A reader that opens the path by name sees the old file or the
 *    complete new one, never a mix.
 *  - A reader that has the old file open or mapped keeps its bytes.
 *  - A write that fails, or is abandoned (destroyed before commit),
 *    unlinks its temp file and leaves the old file untouched.
 *  - No fsync: the new file is not durable across power loss. A
 *    torn file is caught by the readers' magic, size and CRC checks,
 *    so it surfaces as a typed error, never as wrong data.
 *
 * Target rules: a symlink is followed to the file it names (the link
 * stays); an existing target that is not a regular file (FIFO,
 * device, directory) is refused before anything is created; a
 * replaced file keeps its permission bits.
 */

#ifndef PSTAT_IO_FILE_REPLACEMENT_HH
#define PSTAT_IO_FILE_REPLACEMENT_HH

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <stdexcept>
#include <string>

namespace pstat::io
{

/**
 * A failed file replacement. The message names the path and the
 * step; the shard and plan writers rethrow it as their own typed
 * error.
 */
class FileError : public std::runtime_error
{
  public:
    /** Inherits the message constructor. */
    using std::runtime_error::runtime_error;
};

/**
 * One pending replacement of the file at a path: bytes written here
 * go to a temp sibling, and commit() swaps them in whole. Destroying
 * an uncommitted replacement unlinks the temp file and leaves the
 * old file as it was. Every method throws FileError on failure.
 */
class FileReplacement
{
  public:
    /**
     * Resolves `path` (following symlinks), refuses a non-regular
     * target, and creates the empty temp sibling with the target's
     * permission bits (a new file gets 0666 minus the umask).
     */
    explicit FileReplacement(const std::string &path);
    /** Abandons an uncommitted replacement (unlinks the temp file). */
    ~FileReplacement();

    FileReplacement(const FileReplacement &) = delete; //!< not copyable
    FileReplacement &
    operator=(const FileReplacement &) = delete; //!< not copyable

    /** Appends `len` bytes. */
    void write(const void *data, size_t len);
    /**
     * Overwrites `len` bytes already written at `offset` (a header
     * patched once its fields are known); later writes append.
     */
    void writeAt(uint64_t offset, const void *data, size_t len);
    /** Closes the temp file and swaps it in place of the target. */
    void commit();

  private:
    [[noreturn]] void fail(const std::string &what) const;

    std::string path_;   //!< the path as given (for messages)
    std::string target_; //!< the file replaced (symlinks resolved)
    std::string temp_;   //!< the sibling written; empty once done
    std::FILE *file_ = nullptr;
};

} // namespace pstat::io

#endif // PSTAT_IO_FILE_REPLACEMENT_HH
