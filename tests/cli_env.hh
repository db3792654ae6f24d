/**
 * @file
 * Environment control for the tests of the bit-moving knobs.
 *
 * PSTAT_COMPENSATED, PSTAT_LADDER, PSTAT_CERT_TOL and
 * PSTAT_GUARD_BITS move result bits, so `pstat` reads them only where
 * it builds a plan from flags, and records their values in the plan.
 * The tests that hold it to that run the CLI in a forked child with
 * the variables they choose (runCliInChild, or spawnCliInChild for a
 * daemon that keeps running). Each run then starts from a fresh
 * process image, as it does from a shell: a reader that caches the
 * first value it sees cannot hide behind a cache an earlier run of
 * the same test filled. ScopedEnv sets a variable in this process
 * for one scope, for runs that must see the variable on every call.
 */

#ifndef PSTAT_TESTS_CLI_ENV_HH
#define PSTAT_TESTS_CLI_ENV_HH

#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include "apps/pstat_cli.hh"

namespace pstat::test
{

/** One environment assignment; a null value unsets the variable. */
using EnvVar = std::pair<const char *, const char *>;

/** The four bit-moving knobs, each unset. */
inline std::vector<EnvVar>
cleanEnv()
{
    return {{"PSTAT_COMPENSATED", nullptr},
            {"PSTAT_LADDER", nullptr},
            {"PSTAT_CERT_TOL", nullptr},
            {"PSTAT_GUARD_BITS", nullptr}};
}

/** Apply one assignment to this process's environment. */
inline void
applyEnv(const EnvVar &var)
{
    if (var.second != nullptr)
        ::setenv(var.first, var.second, 1);
    else
        ::unsetenv(var.first);
}

/**
 * Start `pstat args...` in a forked child whose environment is this
 * process's with `env` applied in order, and return its pid without
 * waiting (-1 when fork fails). The child's stdout and stderr go to
 * /dev/null, and it leaves through _exit, so no destructor of this
 * process (the temp dir's among them) runs twice.
 */
inline pid_t
spawnCliInChild(const std::vector<const char *> &args,
                const std::vector<EnvVar> &env)
{
    std::fflush(nullptr);
    const pid_t pid = ::fork();
    if (pid != 0)
        return pid;
    const int null = ::open("/dev/null", O_WRONLY);
    ::dup2(null, STDOUT_FILENO);
    ::dup2(null, STDERR_FILENO);
    for (const EnvVar &var : env)
        applyEnv(var);
    std::vector<const char *> argv{"pstat"};
    argv.insert(argv.end(), args.begin(), args.end());
    const int rc =
        apps::pstatMain(static_cast<int>(argv.size()), argv.data());
    std::fflush(nullptr);
    ::_exit(rc);
}

/**
 * Wait for child `pid` to end. Returns its exit code, or -1 when it
 * did not exit normally.
 */
inline int
waitForChild(pid_t pid)
{
    int status = 0;
    if (::waitpid(pid, &status, 0) != pid || !WIFEXITED(status))
        return -1;
    return WEXITSTATUS(status);
}

/**
 * Run `pstat args...` in a forked child (spawnCliInChild) and wait
 * for it. Returns the child's exit code, or -1 when it did not exit
 * normally.
 */
inline int
runCliInChild(const std::vector<const char *> &args,
              const std::vector<EnvVar> &env)
{
    const pid_t pid = spawnCliInChild(args, env);
    return pid < 0 ? -1 : waitForChild(pid);
}

/** Applies assignments for a scope and restores the old values. */
class ScopedEnv
{
  public:
    explicit ScopedEnv(const std::vector<EnvVar> &vars)
    {
        for (const EnvVar &var : vars) {
            const char *old = std::getenv(var.first);
            saved_.emplace_back(var.first,
                                old != nullptr
                                    ? std::optional<std::string>(old)
                                    : std::nullopt);
            applyEnv(var);
        }
    }

    ~ScopedEnv()
    {
        for (auto it = saved_.rbegin(); it != saved_.rend(); ++it)
            applyEnv({it->first,
                      it->second ? it->second->c_str() : nullptr});
    }

    ScopedEnv(const ScopedEnv &) = delete;            //!< not copyable
    ScopedEnv &operator=(const ScopedEnv &) = delete; //!< not copyable

  private:
    std::vector<std::pair<const char *, std::optional<std::string>>>
        saved_;
};

} // namespace pstat::test

#endif // PSTAT_TESTS_CLI_ENV_HH
