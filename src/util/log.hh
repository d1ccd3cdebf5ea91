/**
 * @file
 * Minimal gem5-style status/error reporting.
 *
 * fatal() is for user errors (bad configuration); panic() is for internal
 * invariant violations (simulator bugs). Both terminate; panic() aborts so a
 * core dump / debugger can be attached, fatal() exits cleanly with code 1.
 */

#ifndef CHOPIN_UTIL_LOG_HH
#define CHOPIN_UTIL_LOG_HH

#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string_view>

#include "util/check.hh"

namespace chopin
{

/** Verbosity levels for inform(); warnings always print. */
enum class LogLevel { Quiet, Normal, Verbose };

/** Global log level (defaults to Normal; benches may set Quiet). */
LogLevel logLevel();
void setLogLevel(LogLevel level);

namespace detail
{

inline void
format(std::ostringstream &)
{}

template <typename T, typename... Rest>
void
format(std::ostringstream &os, const T &first, const Rest &...rest)
{
    os << first;
    format(os, rest...);
}

[[noreturn]] void die(std::string_view kind, const std::string &msg,
                      bool abort_process);

} // namespace detail

/** Informational message; suppressed at LogLevel::Quiet. */
template <typename... Args>
void
inform(const Args &...args)
{
    if (logLevel() == LogLevel::Quiet)
        return;
    std::ostringstream os;
    detail::format(os, args...);
    std::cerr << "info: " << os.str() << "\n";
}

/** Warning message; never suppressed. */
template <typename... Args>
void
warn(const Args &...args)
{
    std::ostringstream os;
    detail::format(os, args...);
    std::cerr << "warn: " << os.str() << "\n";
}

/** Unrecoverable user error (bad config / arguments): exit(1). */
template <typename... Args>
[[noreturn]] void
fatal(const Args &...args)
{
    std::ostringstream os;
    detail::format(os, args...);
    detail::die("fatal", os.str(), false);
}

/** Internal invariant violation (a CHOPIN bug): abort(). */
template <typename... Args>
[[noreturn]] void
panic(const Args &...args)
{
    std::ostringstream os;
    detail::format(os, args...);
    detail::die("panic", os.str(), true);
}

} // namespace chopin

#endif // CHOPIN_UTIL_LOG_HH
