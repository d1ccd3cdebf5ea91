#include "util/check.hh"

#include <cstdlib>
#include <iostream>
#include <mutex>

namespace chopin
{

namespace
{

std::string cliToolName; // non-empty = CLI diagnostic mode
std::mutex cliFailing;   // held, never released, by the thread that reports

void
cliHandler(const CheckFailure &failure)
{
    // A check may fail on any thread: a scenario worker, a parallelFor
    // chunk or main. The first failing thread takes the lock, prints the
    // one diagnostic and ends the process; any other thread that fails
    // meanwhile blocks here until it does, so the line is never repeated
    // or interleaved. std::_Exit, not std::exit: exit would run static
    // destructors on this thread, and the global pool's would join the
    // workers blocked here.
    cliFailing.lock();
    std::cout.flush();
    std::cerr << cliToolName << ": error: "
              << (failure.message.empty() ? failure.condition
                                          : failure.message.c_str())
              << std::endl;
    std::_Exit(2);
}

void
defaultHandler(const CheckFailure &failure)
{
    std::cerr << failure.toString() << std::endl;
    // Abort (not exit) so a debugger / core dump captures the violation.
    std::abort();
}

CheckHandler currentHandler = nullptr; // nullptr = defaultHandler

} // namespace

std::string
CheckFailure::toString() const
{
    std::ostringstream os;
    os << kind << " failed: " << condition;
    if (!message.empty())
        os << ": " << message;
    os << " (" << file << ":" << line << ")";
    return os.str();
}

CheckHandler
setCheckHandler(CheckHandler handler)
{
    CheckHandler prev = currentHandler;
    currentHandler = handler;
    return prev;
}

void
setCliCheckTool(std::string_view tool_name)
{
    cliToolName.assign(tool_name);
    currentHandler = cliHandler;
}

namespace detail
{

void
dispatchCheckFailure(const CheckFailure &failure)
{
    CheckHandler handler = currentHandler ? currentHandler : defaultHandler;
    handler(failure);
    // The handler contract is "do not return"; enforce it.
    defaultHandler(failure);
    std::abort(); // unreachable; keeps [[noreturn]] honest for the compiler
}

} // namespace detail

} // namespace chopin
