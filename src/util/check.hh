/**
 * @file
 * Contract / invariant checking layer.
 *
 * Three macros with identical formatted-message syntax but different
 * compile-time gating, controlled by CHOPIN_CHECK_LEVEL (the build system
 * sets 2 for Debug, 1 for RelWithDebInfo, 0 for Release):
 *
 *  - CHOPIN_CHECK(cond, ...)  always compiled in, every build type. For
 *    cheap contracts that must hold even in release tools (argument
 *    validation, accounting conservation at frame boundaries).
 *  - CHOPIN_ASSERT(cond, ...) compiled in at level >= 1 (Debug and
 *    RelWithDebInfo, out in Release). The default for simulator
 *    invariants on hot-ish paths.
 *  - CHOPIN_DCHECK(cond, ...) compiled in at level >= 2 (Debug only). For
 *    expensive checks (full-surface or full-grid scans).
 *
 * A failed check builds a CheckFailure record and hands it to the installed
 * failure handler. The default handler prints the record and aborts; tests
 * install a throwing handler (ScopedCheckHandler), and every tool's main
 * installs the handler that prints a clean one-line diagnostic and exits
 * 2 (setCliCheckTool). The check layer is the simulator's only failure
 * path: bad user input and broken invariants alike fail a check.
 */

#ifndef CHOPIN_UTIL_CHECK_HH
#define CHOPIN_UTIL_CHECK_HH

#include <sstream>
#include <string>
#include <string_view>

namespace chopin
{

/** Compile-time check gating; see file comment. 1 when the build system is
 *  silent (plain compiler invocations behave like RelWithDebInfo). */
#ifndef CHOPIN_CHECK_LEVEL
#define CHOPIN_CHECK_LEVEL 1
#endif

/** Everything known about one failed check. */
struct CheckFailure
{
    const char *file;      ///< __FILE__ of the failing macro
    int line;              ///< __LINE__ of the failing macro
    const char *kind;      ///< "CHECK", "ASSERT" or "DCHECK"
    const char *condition; ///< stringified condition
    std::string message;   ///< formatted user message (may be empty)

    /** One-line "kind failed: cond: message (file:line)" rendering. */
    std::string toString() const;
};

/**
 * Failure handler. May throw (tests) or terminate (tools); if it returns
 * normally the process aborts, so a check never falls through.
 */
using CheckHandler = void (*)(const CheckFailure &);

/** Install @p handler; nullptr restores the default (print + abort).
 *  @return the previously installed handler (nullptr = default). */
CheckHandler setCheckHandler(CheckHandler handler);

/**
 * Route failures through one "<tool>: error: <message>" line on stderr
 * followed by exit code 2 — clean diagnostics for command-line tools.
 * Safe on any thread: when several fail at once, the first reports and
 * the others wait for the process to end.
 */
void setCliCheckTool(std::string_view tool_name);

/** RAII handler swap for tests. */
class ScopedCheckHandler
{
  public:
    explicit ScopedCheckHandler(CheckHandler handler)
        : prev(setCheckHandler(handler))
    {
    }
    ~ScopedCheckHandler() { setCheckHandler(prev); }
    ScopedCheckHandler(const ScopedCheckHandler &) = delete;
    ScopedCheckHandler &operator=(const ScopedCheckHandler &) = delete;

  private:
    CheckHandler prev;
};

namespace detail
{

/** Dispatch @p failure to the installed handler; abort if it returns. */
[[noreturn]] void dispatchCheckFailure(const CheckFailure &failure);

inline void
formatCheckMessage(std::ostringstream &)
{
}

template <typename T, typename... Rest>
void
formatCheckMessage(std::ostringstream &os, const T &first, const Rest &...rest)
{
    os << first;
    formatCheckMessage(os, rest...);
}

template <typename... Args>
[[noreturn]] void
failCheck(const char *kind, const char *file, int line, const char *condition,
          const Args &...args)
{
    std::ostringstream os;
    formatCheckMessage(os, args...);
    dispatchCheckFailure(CheckFailure{file, line, kind, condition, os.str()});
}

} // namespace detail

/** Active check: fail through the handler when @p cond is false. A
 *  conditional expression, not an `if`: GCC folds CHOPIN_CHECK(false, ...)
 *  to the [[noreturn]] call, so it can end a value-returning function in
 *  every build (an `if` draws -Wreturn-type under -fsanitize=thread). */
#define CHOPIN_INTERNAL_CHECK(kind, cond, ...)                                \
    do {                                                                      \
        __builtin_expect(!!(cond), 1)                                         \
            ? (void)0                                                         \
            : ::chopin::detail::failCheck(kind, __FILE__, __LINE__, #cond     \
                                          __VA_OPT__(, ) __VA_ARGS__);        \
    } while (0)

/** Compiled-out check: type-checks the condition, evaluates nothing. */
#define CHOPIN_INTERNAL_CHECK_OFF(cond, ...)                                  \
    do {                                                                      \
        if (false) {                                                          \
            (void)sizeof((cond) ? 1 : 0);                                     \
        }                                                                     \
    } while (0)

#define CHOPIN_CHECK(cond, ...) CHOPIN_INTERNAL_CHECK("CHECK", cond, __VA_ARGS__)

#if CHOPIN_CHECK_LEVEL >= 1
#define CHOPIN_ASSERT(cond, ...)                                              \
    CHOPIN_INTERNAL_CHECK("ASSERT", cond, __VA_ARGS__)
#else
#define CHOPIN_ASSERT(cond, ...) CHOPIN_INTERNAL_CHECK_OFF(cond, __VA_ARGS__)
#endif

#if CHOPIN_CHECK_LEVEL >= 2
#define CHOPIN_DCHECK(cond, ...)                                              \
    CHOPIN_INTERNAL_CHECK("DCHECK", cond, __VA_ARGS__)
#else
#define CHOPIN_DCHECK(cond, ...) CHOPIN_INTERNAL_CHECK_OFF(cond, __VA_ARGS__)
#endif

} // namespace chopin

#endif // CHOPIN_UTIL_CHECK_HH
