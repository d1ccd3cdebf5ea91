#include "core/chopin.hh"

#include "util/check.hh"

namespace chopin
{

double
speedupOver(const FrameResult &baseline, const FrameResult &result)
{
    CHOPIN_CHECK(result.cycles > 0);
    return static_cast<double>(baseline.cycles) /
           static_cast<double>(result.cycles);
}

} // namespace chopin
