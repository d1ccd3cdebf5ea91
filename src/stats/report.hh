/**
 * @file
 * Shared report serialization.
 *
 * Every machine-readable artifact a bench harness or tool writes goes
 * through one of two sinks in this module: TextTable (stats/table.hh) for
 * tables and their CSV blocks, and JsonWriter here for JSON summaries
 * (BENCH_frame.json, BENCH_sweep.json, per-run stat dumps). Bench binaries
 * must not hand-roll `std::cout << counter` stats output — a lint rule
 * (bench-stats-print) enforces it — so formats can only drift in one place.
 */

#ifndef CHOPIN_STATS_REPORT_HH
#define CHOPIN_STATS_REPORT_HH

#include <cstdint>
#include <ostream>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace chopin
{

/**
 * Write @p s as a quoted JSON string: quote, backslash, newline and tab
 * get their short escapes, other control bytes \u00XX, everything else
 * passes through unchanged.
 */
void writeJsonString(std::ostream &os, std::string_view s);

/**
 * Minimal streaming JSON writer: tracks nesting and comma placement so
 * callers can never emit structurally invalid JSON. Output is compact
 * (one line) with a trailing newline at finish(); doubles use the
 * stream's default formatting (same as the historical hand-rolled
 * emitters), integers are emitted exactly.
 */
class JsonWriter
{
  public:
    explicit JsonWriter(std::ostream &stream) : os(stream) {}

    JsonWriter &
    beginObject()
    {
        preValue();
        os << '{';
        stack.push_back(State::ObjectFirst);
        return *this;
    }

    JsonWriter &
    endObject()
    {
        pop(State::ObjectFirst, State::ObjectNext);
        os << '}';
        return *this;
    }

    JsonWriter &
    beginArray()
    {
        preValue();
        os << '[';
        stack.push_back(State::ArrayFirst);
        return *this;
    }

    JsonWriter &
    endArray()
    {
        pop(State::ArrayFirst, State::ArrayNext);
        os << ']';
        return *this;
    }

    JsonWriter &
    key(std::string_view k)
    {
        preValue();
        writeJsonString(os, k);
        os << ':';
        have_key = true;
        return *this;
    }

    JsonWriter &
    value(std::string_view s)
    {
        preValue();
        writeJsonString(os, s);
        return *this;
    }

    JsonWriter &value(const char *s) { return value(std::string_view(s)); }

    JsonWriter &
    value(double v)
    {
        preValue();
        os << v;
        return *this;
    }

    JsonWriter &
    value(bool v)
    {
        preValue();
        os << (v ? "true" : "false");
        return *this;
    }

    /** Any integer type, widened without narrowing surprises. */
    template <typename T,
              typename = std::enable_if_t<std::is_integral_v<T> &&
                                          !std::is_same_v<T, bool>>>
    JsonWriter &
    value(T v)
    {
        preValue();
        if constexpr (std::is_signed_v<T>)
            os << static_cast<std::int64_t>(v);
        else
            os << static_cast<std::uint64_t>(v);
        return *this;
    }

    /** key() + value() in one call. */
    template <typename T>
    JsonWriter &
    field(std::string_view k, T &&v)
    {
        key(k);
        return value(std::forward<T>(v));
    }

    /** Terminate the document (newline); all scopes must be closed. */
    void
    finish()
    {
        os << '\n';
    }

  private:
    enum class State
    {
        ObjectFirst,
        ObjectNext,
        ArrayFirst,
        ArrayNext,
    };

    void
    preValue()
    {
        if (have_key) {
            have_key = false;
            return; // the comma was placed before the key
        }
        if (stack.empty())
            return;
        State &s = stack.back();
        if (s == State::ObjectNext || s == State::ArrayNext)
            os << ',';
        s = s == State::ObjectFirst ? State::ObjectNext
            : s == State::ArrayFirst ? State::ArrayNext
                                     : s;
    }

    void
    pop(State first, State next)
    {
        if (!stack.empty() &&
            (stack.back() == first || stack.back() == next))
            stack.pop_back();
        have_key = false;
    }

    std::ostream &os;
    std::vector<State> stack;
    bool have_key = false;
};

} // namespace chopin

#endif // CHOPIN_STATS_REPORT_HH
