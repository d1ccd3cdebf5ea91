#include "sfr/functional_log.hh"

#include "util/check.hh"

namespace chopin
{

FunctionalClass
functionalClass(Scheme scheme)
{
    switch (scheme) {
      case Scheme::SingleGpu:
        return FunctionalClass::None;
      case Scheme::Duplication:
      case Scheme::Gpupd:
      case Scheme::GpupdIdeal:
        return FunctionalClass::Partitioned;
      case Scheme::Chopin:
      case Scheme::ChopinCompSched:
      case Scheme::ChopinIdeal:
        return FunctionalClass::ChopinFewestRemaining;
      case Scheme::ChopinRoundRobin:
        return FunctionalClass::ChopinRoundRobin;
    }
    CHOPIN_CHECK(false, "unknown scheme ", static_cast<int>(scheme));
}

} // namespace chopin
