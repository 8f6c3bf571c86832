#include "noc/config.hpp"

#include <cstdlib>

#include "util/log.hpp"

namespace nocalert::noc {

const char *
routingAlgoName(RoutingAlgo algo)
{
    switch (algo) {
      case RoutingAlgo::XY: return "XY";
      case RoutingAlgo::YX: return "YX";
      case RoutingAlgo::WestFirst: return "WestFirst";
      case RoutingAlgo::O1Turn: return "O1Turn";
      case RoutingAlgo::QAdaptive: return "QAdaptive";
    }
    return "?";
}

std::optional<RoutingAlgo>
routingAlgoFromName(std::string_view name)
{
    for (int i = 0; i <= static_cast<int>(RoutingAlgo::QAdaptive); ++i) {
        const auto algo = static_cast<RoutingAlgo>(i);
        if (name == routingAlgoName(algo))
            return algo;
    }
    return std::nullopt;
}

void
RouterParams::validate() const
{
    if (numVcs < 1 || numVcs > 8)
        NOCALERT_FATAL("numVcs must be in [1,8], got ", numVcs);
    if (bufferDepth < 1 || bufferDepth > 15)
        NOCALERT_FATAL("bufferDepth must be in [1,15], got ", bufferDepth);
    if (classes.empty())
        NOCALERT_FATAL("at least one message class is required");
    if (classes.size() > numVcs)
        NOCALERT_FATAL("more message classes (", classes.size(),
                       ") than VCs (", numVcs, ")");
    for (const auto &cls : classes) {
        if (cls.packetLength < 1)
            NOCALERT_FATAL("message class '", cls.name,
                           "' has zero packet length");
        if (cls.packetLength > bufferDepth)
            NOCALERT_FATAL("message class '", cls.name, "' packets (",
                           cls.packetLength, " flits) exceed the VC depth (",
                           bufferDepth, "); atomic VCs could deadlock");
    }
}




void
NetworkConfig::validate() const
{
    if (width < 2 || height < 2)
        NOCALERT_FATAL("mesh must be at least 2x2, got ",
                       width, "x", height);
    router.validate();
    if (retransmit.enabled) {
        if (retransmit.ackTimeout < 1)
            NOCALERT_FATAL("retransmit.ackTimeout must be positive");
        if (retransmit.backoffCap < 1)
            NOCALERT_FATAL("retransmit.backoffCap must be at least 1");
    }
}

} // namespace nocalert::noc
