#include "io/file_replacement.hh"

#include <atomic>
#include <cassert>
#include <cerrno>
#include <climits>
#include <cstring>
#include <utility>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

namespace pstat::io
{

namespace
{

/** Symlink hops followed before giving up, as the kernel does. */
constexpr int max_symlink_hops = 40;

/** Numbers the temp files of one process (the `<n>` in the name). */
std::atomic<uint64_t> temp_serial{0};

/**
 * The file a write to `path` lands on: a symlink in the last
 * component is followed, as open(2) follows it, even when the file
 * it names does not exist yet. Renaming onto `path` itself would
 * replace the link instead.
 */
std::string
resolveTarget(const std::string &path)
{
    std::string target = path;
    for (int hop = 0; hop < max_symlink_hops; ++hop) {
        struct stat st{};
        if (::lstat(target.c_str(), &st) != 0 || !S_ISLNK(st.st_mode))
            return target;
        char link[PATH_MAX];
        const ssize_t len =
            ::readlink(target.c_str(), link, sizeof(link));
        if (len < 0 || static_cast<size_t>(len) == sizeof(link))
            throw FileError(path + ": cannot read symlink " + target);
        const size_t dir_end = target.rfind('/');
        target = link[0] == '/' || dir_end == std::string::npos
                     ? std::string(link, len)
                     : target.substr(0, dir_end + 1) +
                           std::string(link, len);
    }
    throw FileError(path + ": " + std::strerror(ELOOP));
}

std::string
openFailure(int err)
{
    return std::string("cannot open for writing: ") +
           std::strerror(err);
}

} // namespace

FileReplacement::FileReplacement(const std::string &path)
    : path_(path), target_(resolveTarget(path))
{
    // An empty path would put the temp file in the working directory.
    if (target_.empty())
        fail(openFailure(ENOENT));
    // Checked before anything is created: exchanging a FIFO or a
    // device node out of its directory would remove it.
    struct stat st{};
    const bool replacing = ::stat(target_.c_str(), &st) == 0;
    if (replacing && !S_ISREG(st.st_mode))
        fail("not a regular file; refusing to replace it");
    if (!replacing && errno != ENOENT)
        fail(openFailure(errno));
    // Created no more permissive than the old file (the umask may
    // clear bits), then given its exact bits.
    const mode_t mode = replacing ? st.st_mode & 07777 : 0666;

    int fd = -1;
    while (fd < 0) {
        temp_ = target_ + ".tmp." + std::to_string(::getpid()) + "." +
                std::to_string(temp_serial++);
        fd = ::open(temp_.c_str(),
                    O_WRONLY | O_CREAT | O_EXCL | O_CLOEXEC, mode);
        if (fd < 0 && errno != EEXIST) {
            const int err = errno;
            temp_.clear();
            fail(openFailure(err));
        }
    }
    if ((replacing && ::fchmod(fd, mode) != 0) ||
        (file_ = ::fdopen(fd, "wb")) == nullptr) {
        const int err = errno;
        ::close(fd);
        ::unlink(temp_.c_str());
        temp_.clear();
        fail(openFailure(err));
    }
}

FileReplacement::~FileReplacement()
{
    if (file_ != nullptr)
        std::fclose(file_);
    if (!temp_.empty())
        ::unlink(temp_.c_str());
}

void
FileReplacement::fail(const std::string &what) const
{
    throw FileError(path_ + ": " + what);
}

void
FileReplacement::write(const void *data, size_t len)
{
    assert(file_ != nullptr && "replacement already committed");
    if (std::fwrite(data, 1, len, file_) != len)
        fail(std::string("write failed: ") + std::strerror(errno));
}

void
FileReplacement::writeAt(uint64_t offset, const void *data, size_t len)
{
    assert(file_ != nullptr && "replacement already committed");
    if (::fseeko(file_, static_cast<off_t>(offset), SEEK_SET) != 0)
        fail(std::string("seek failed: ") + std::strerror(errno));
    write(data, len);
    if (::fseeko(file_, 0, SEEK_END) != 0)
        fail(std::string("seek failed: ") + std::strerror(errno));
}

void
FileReplacement::commit()
{
    assert(file_ != nullptr && "replacement already committed");
    if (std::fclose(std::exchange(file_, nullptr)) != 0)
        fail(std::string("close failed: ") + std::strerror(errno));
    if (::renameat2(AT_FDCWD, temp_.c_str(), AT_FDCWD, target_.c_str(),
                    RENAME_EXCHANGE) == 0) {
        // temp_ now names the displaced old file; a reader that has
        // it open or mapped keeps it until it lets go.
        if (::unlink(temp_.c_str()) != 0)
            fail("replaced, but cannot remove the old file " + temp_ +
                 ": " + std::strerror(errno));
        temp_.clear();
        return;
    }
    // ENOENT: nothing to exchange with. EINVAL: the filesystem has
    // no exchange. Either way a plain rename puts the file in place.
    if (errno != ENOENT && errno != EINVAL)
        fail(std::string("cannot replace: ") + std::strerror(errno));
    if (::rename(temp_.c_str(), target_.c_str()) != 0)
        fail(std::string("cannot replace: ") + std::strerror(errno));
    temp_.clear();
}

} // namespace pstat::io
