#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>

#include "util/check.hh"
#include "util/thread_pool.hh"

namespace chopin
{
namespace
{

/** Test handler: surface the failure as an exception instead of aborting. */
[[noreturn]] void
throwHandler(const CheckFailure &failure)
{
    throw failure;
}

void
returningHandler(const CheckFailure &)
{
    // Violates the handler contract on purpose; dispatch must still abort.
}

TEST(Check, PassingChecksAreSilent)
{
    ScopedCheckHandler guard(throwHandler);
    CHOPIN_CHECK(1 + 1 == 2, "arithmetic broke");
    CHOPIN_ASSERT(true);
    CHOPIN_DCHECK(true, "never shown");
}

TEST(Check, ConditionEvaluatedExactlyOnce)
{
    int evaluations = 0;
    CHOPIN_CHECK(++evaluations == 1);
    EXPECT_EQ(evaluations, 1);
}

TEST(Check, FailureRecordCarriesLocationAndFormattedMessage)
{
    ScopedCheckHandler guard(throwHandler);
    int got = 3;
    int fail_line = 0;
    try {
        fail_line = __LINE__ + 1;
        CHOPIN_CHECK(got == 4, "expected 4, got ", got);
        FAIL() << "check did not fire";
    } catch (const CheckFailure &f) {
        EXPECT_STREQ(f.kind, "CHECK");
        EXPECT_STREQ(f.condition, "got == 4");
        EXPECT_EQ(f.message, "expected 4, got 3");
        EXPECT_EQ(f.line, fail_line);
        EXPECT_NE(std::string(f.file).find("check_test.cc"),
                  std::string::npos);
    }
}

TEST(Check, MessageIsOptional)
{
    ScopedCheckHandler guard(throwHandler);
    try {
        CHOPIN_CHECK(false);
        FAIL() << "check did not fire";
    } catch (const CheckFailure &f) {
        EXPECT_TRUE(f.message.empty());
        EXPECT_STREQ(f.condition, "false");
    }
}

TEST(Check, ToStringRendersOneLineDiagnostic)
{
    CheckFailure with_msg{"net/interconnect.cc", 42, "ASSERT", "src != dst",
                          "bad transfer 1 -> 1"};
    EXPECT_EQ(with_msg.toString(),
              "ASSERT failed: src != dst: bad transfer 1 -> 1 "
              "(net/interconnect.cc:42)");

    CheckFailure no_msg{"a.cc", 7, "CHECK", "ok", ""};
    EXPECT_EQ(no_msg.toString(), "CHECK failed: ok (a.cc:7)");
}

TEST(Check, AssertGatedByCheckLevel)
{
    ScopedCheckHandler guard(throwHandler);
    int evaluations = 0;
    bool fired = false;
    try {
        CHOPIN_ASSERT(++evaluations == 0, "level-gated");
    } catch (const CheckFailure &f) {
        fired = true;
        EXPECT_STREQ(f.kind, "ASSERT");
    }
#if CHOPIN_CHECK_LEVEL >= 1
    EXPECT_TRUE(fired);
    EXPECT_EQ(evaluations, 1);
#else
    // Compiled out: the condition must not even be evaluated.
    EXPECT_FALSE(fired);
    EXPECT_EQ(evaluations, 0);
#endif
}

TEST(Check, DcheckGatedByCheckLevel)
{
    ScopedCheckHandler guard(throwHandler);
    int evaluations = 0;
    bool fired = false;
    try {
        CHOPIN_DCHECK(++evaluations == 0, "debug-only");
    } catch (const CheckFailure &f) {
        fired = true;
        EXPECT_STREQ(f.kind, "DCHECK");
    }
#if CHOPIN_CHECK_LEVEL >= 2
    EXPECT_TRUE(fired);
    EXPECT_EQ(evaluations, 1);
#else
    EXPECT_FALSE(fired);
    EXPECT_EQ(evaluations, 0);
#endif
}

TEST(Check, ScopedHandlerRestoresThePreviousHandler)
{
    CheckHandler outer = setCheckHandler(returningHandler);
    {
        ScopedCheckHandler guard(throwHandler);
        EXPECT_THROW(CHOPIN_CHECK(false), CheckFailure);
    }
    // The scope must have reinstated returningHandler, not the default.
    EXPECT_EQ(setCheckHandler(outer), &returningHandler);
}

TEST(CheckDeath, DefaultHandlerPrintsAndAborts)
{
    EXPECT_DEATH(CHOPIN_CHECK(2 + 2 == 5, "arithmetic broke"),
                 "CHECK failed: 2 \\+ 2 == 5: arithmetic broke");
}

TEST(CheckDeath, ReturningHandlerStillAborts)
{
    EXPECT_DEATH(
        {
            setCheckHandler(returningHandler);
            CHOPIN_CHECK(false, "handler returned");
        },
        "CHECK failed: false: handler returned");
}

TEST(CheckDeath, CliHandlerPrintsToolDiagnosticAndExits2)
{
    EXPECT_EXIT(
        {
            setCliCheckTool("demo_tool");
            CHOPIN_CHECK(false, "--scale must be >= 1");
        },
        ::testing::ExitedWithCode(2), "demo_tool: error: --scale must be >= 1");
}

TEST(CheckDeath, CliHandlerFallsBackToConditionText)
{
    EXPECT_EXIT(
        {
            setCliCheckTool("demo_tool");
            int argc = 0;
            CHOPIN_CHECK(argc >= 1);
        },
        ::testing::ExitedWithCode(2), "demo_tool: error: argc >= 1");
}

TEST(CheckDeath, CliHandlerReportsOnceWhenWorkersFailTogether)
{
    // Four threads fail the same check at once: the first to reach the
    // handler prints and ends the process, the others must print nothing.
    EXPECT_EXIT(
        {
            setCliCheckTool("demo_tool");
            constexpr unsigned threads = 4;
            ThreadPool pool(threads);
            std::atomic<unsigned> arrived{0};
            pool.parallelFor(threads, [&](std::size_t) {
                // Hold every chunk until all threads have one (or 10 s
                // pass), so the checks fail as close together as they can.
                arrived.fetch_add(1);
                using Clock = std::chrono::steady_clock;
                const auto deadline = Clock::now() + std::chrono::seconds(10);
                while (arrived.load() < threads && Clock::now() < deadline)
                    std::this_thread::yield();
                CHOPIN_CHECK(false, "worker failed");
            });
        },
        ::testing::ExitedWithCode(2), "^demo_tool: error: worker failed\n$");
}

} // namespace
} // namespace chopin
