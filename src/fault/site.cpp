#include "fault/site.hpp"

#include <algorithm>
#include <charconv>
#include <map>
#include <sstream>

#include "util/bits.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"

namespace nocalert::fault {

using noc::kNumPorts;
using noc::TapPoint;

const char *
signalClassName(SignalClass cls)
{
    switch (cls) {
      case SignalClass::WriteEnable: return "WriteEnable";
      case SignalClass::CreditRecv: return "CreditRecv";
      case SignalClass::Sa1Req: return "Sa1Req";
      case SignalClass::Sa1Grant: return "Sa1Grant";
      case SignalClass::Sa2Req: return "Sa2Req";
      case SignalClass::Sa2Grant: return "Sa2Grant";
      case SignalClass::Va1Candidate: return "Va1Candidate";
      case SignalClass::Va2Req: return "Va2Req";
      case SignalClass::Va2Grant: return "Va2Grant";
      case SignalClass::RcWaiting: return "RcWaiting";
      case SignalClass::RcDone: return "RcDone";
      case SignalClass::RcOutPort: return "RcOutPort";
      case SignalClass::StVcState: return "StVcState";
      case SignalClass::StVcOutPort: return "StVcOutPort";
      case SignalClass::StVcOutVc: return "StVcOutVc";
      case SignalClass::StOutVcFree: return "StOutVcFree";
      case SignalClass::StCredits: return "StCredits";
      case SignalClass::StSa1Pointer: return "StSa1Pointer";
      case SignalClass::StSa2Pointer: return "StSa2Pointer";
      case SignalClass::StRcPointer: return "StRcPointer";
      case SignalClass::StSchedValid: return "StSchedValid";
      case SignalClass::StSchedVc: return "StSchedVc";
      case SignalClass::StSchedRow: return "StSchedRow";
      case SignalClass::StSchedOutVc: return "StSchedOutVc";
    }
    return "?";
}

std::optional<SignalClass>
signalClassFromName(std::string_view name)
{
    for (unsigned i = 0; i < kNumSignalClasses; ++i) {
        const auto cls = static_cast<SignalClass>(i);
        if (name == signalClassName(cls))
            return cls;
    }
    return std::nullopt;
}

bool
isStateSignal(SignalClass cls)
{
    switch (cls) {
      case SignalClass::StVcState:
      case SignalClass::StVcOutPort:
      case SignalClass::StVcOutVc:
      case SignalClass::StOutVcFree:
      case SignalClass::StCredits:
      case SignalClass::StSa1Pointer:
      case SignalClass::StSa2Pointer:
      case SignalClass::StRcPointer:
      case SignalClass::StSchedValid:
      case SignalClass::StSchedVc:
      case SignalClass::StSchedRow:
      case SignalClass::StSchedOutVc:
        return true;
      default:
        return false;
    }
}

TapPoint
signalTapPoint(SignalClass cls)
{
    switch (cls) {
      case SignalClass::WriteEnable:
      case SignalClass::CreditRecv:
        return TapPoint::AfterInputs;
      case SignalClass::Sa1Req: return TapPoint::AfterSa1Req;
      case SignalClass::Sa1Grant: return TapPoint::AfterSa1;
      case SignalClass::Sa2Req: return TapPoint::AfterSa2Req;
      case SignalClass::Sa2Grant: return TapPoint::AfterSa2;
      case SignalClass::Va1Candidate: return TapPoint::AfterVa1;
      case SignalClass::Va2Req: return TapPoint::AfterVa2Req;
      case SignalClass::Va2Grant: return TapPoint::AfterVa2;
      case SignalClass::RcWaiting: return TapPoint::AfterRcReq;
      case SignalClass::RcDone:
      case SignalClass::RcOutPort:
        return TapPoint::AfterRc;
      default:
        return TapPoint::CycleStart;
    }
}

std::string
FaultSite::describe() const
{
    std::ostringstream os;
    os << "r" << router << " " << signalClassName(signal)
       << " p=" << noc::portName(port);
    if (vc >= 0)
        os << " vc=" << vc;
    os << " bit=" << bit;
    return os.str();
}

std::vector<FaultSite>
FaultSiteCatalog::enumerateRouter(const noc::NetworkConfig &config,
                                  noc::NodeId node)
{
    const noc::RouterParams &params = config.router;
    const unsigned num_vcs = params.numVcs;
    const unsigned vc_bits = bitsFor(num_vcs);
    const unsigned credit_bits = bitsFor(params.bufferDepth + 1);
    const bool has_va = num_vcs > 1;

    std::vector<FaultSite> sites;
    auto add = [&](SignalClass cls, int port, int vc, unsigned bit) {
        sites.push_back({node, cls, port, vc, bit});
    };

    for (int p = 0; p < kNumPorts; ++p) {
        if (!config.portConnected(node, p))
            continue;

        // Per-input-port wire signals, one bit per VC.
        for (unsigned v = 0; v < num_vcs; ++v) {
            add(SignalClass::WriteEnable, p, -1, v);
            add(SignalClass::Sa1Req, p, -1, v);
            add(SignalClass::Sa1Grant, p, -1, v);
            add(SignalClass::RcWaiting, p, -1, v);
            add(SignalClass::RcDone, p, -1, v);
        }
        // RC output direction (3 bits encode 5 ports).
        for (unsigned b = 0; b < 3; ++b)
            add(SignalClass::RcOutPort, p, -1, b);

        // Per-output-port wire signals.
        for (unsigned v = 0; v < num_vcs; ++v)
            add(SignalClass::CreditRecv, p, -1, v);
        for (unsigned b = 0; b < kNumPorts; ++b) {
            add(SignalClass::Sa2Req, p, -1, b);
            add(SignalClass::Sa2Grant, p, -1, b);
        }

        // VA wires (only meaningful with more than one VC).
        if (has_va) {
            for (unsigned v = 0; v < num_vcs; ++v)
                for (unsigned b = 0; b < vc_bits; ++b)
                    add(SignalClass::Va1Candidate, p,
                        static_cast<int>(v), b);
            for (unsigned w = 0; w < num_vcs; ++w) {
                for (int cp = 0; cp < kNumPorts; ++cp) {
                    if (!config.portConnected(node, cp))
                        continue;
                    for (unsigned cv = 0; cv < num_vcs; ++cv) {
                        const unsigned client = noc::vaClient(cp, cv);
                        add(SignalClass::Va2Req, p,
                            static_cast<int>(w), client);
                        add(SignalClass::Va2Grant, p,
                            static_cast<int>(w), client);
                    }
                }
            }
        }

        // Architectural registers.
        for (unsigned v = 0; v < num_vcs; ++v) {
            for (unsigned b = 0; b < 2; ++b)
                add(SignalClass::StVcState, p, static_cast<int>(v), b);
            for (unsigned b = 0; b < 3; ++b)
                add(SignalClass::StVcOutPort, p, static_cast<int>(v), b);
            if (has_va) {
                for (unsigned b = 0; b < vc_bits; ++b)
                    add(SignalClass::StVcOutVc, p,
                        static_cast<int>(v), b);
            }
            add(SignalClass::StOutVcFree, p, static_cast<int>(v), 0);
            for (unsigned b = 0; b < credit_bits; ++b)
                add(SignalClass::StCredits, p, static_cast<int>(v), b);
        }
        for (unsigned b = 0; b < vc_bits; ++b) {
            add(SignalClass::StSa1Pointer, p, -1, b);
            add(SignalClass::StRcPointer, p, -1, b);
        }
        for (unsigned b = 0; b < 3; ++b)
            add(SignalClass::StSa2Pointer, p, -1, b);

        add(SignalClass::StSchedValid, p, -1, 0);
        for (unsigned b = 0; b < vc_bits; ++b) {
            add(SignalClass::StSchedVc, p, -1, b);
            add(SignalClass::StSchedOutVc, p, -1, b);
        }
        for (unsigned b = 0; b < kNumPorts; ++b)
            add(SignalClass::StSchedRow, p, -1, b);
    }

    return sites;
}

std::vector<FaultSite>
FaultSiteCatalog::enumerateNetwork(const noc::NetworkConfig &config)
{
    std::vector<FaultSite> all;
    for (noc::NodeId n = 0; n < config.numNodes(); ++n) {
        auto sites = enumerateRouter(config, n);
        all.insert(all.end(), sites.begin(), sites.end());
    }
    return all;
}

std::vector<FaultSite>
FaultSiteCatalog::sampleNetwork(const noc::NetworkConfig &config,
                                unsigned max_sites, std::uint64_t seed)
{
    return sampleSites(enumerateNetwork(config), max_sites, seed);
}

std::vector<FaultSite>
FaultSiteCatalog::sampleSites(std::vector<FaultSite> all,
                              unsigned max_sites, std::uint64_t seed)
{
    if (max_sites == 0 || all.size() <= max_sites)
        return all;

    // Group by signal class, shuffle each group, draw round-robin.
    std::map<SignalClass, std::vector<FaultSite>> groups;
    for (const FaultSite &site : all)
        groups[site.signal].push_back(site);

    Pcg32 rng(seed);
    for (auto &[cls, group] : groups) {
        for (std::size_t i = group.size(); i > 1; --i) {
            const auto j = rng.nextBounded(static_cast<std::uint32_t>(i));
            std::swap(group[i - 1], group[j]);
        }
    }

    std::vector<FaultSite> sample;
    sample.reserve(max_sites);
    std::size_t round = 0;
    while (sample.size() < max_sites) {
        bool any = false;
        for (auto &[cls, group] : groups) {
            if (round < group.size()) {
                sample.push_back(group[round]);
                any = true;
                if (sample.size() == max_sites)
                    break;
            }
        }
        if (!any)
            break;
        ++round;
    }
    return sample;
}

std::string
parseFaultSite(std::string_view spec, const noc::NetworkConfig &config,
               FaultSite &site)
{
    std::vector<std::string_view> parts;
    for (std::size_t begin = 0;;) {
        const std::size_t colon = spec.find(':', begin);
        parts.push_back(spec.substr(begin, colon - begin));
        if (colon == std::string_view::npos)
            break;
        begin = colon + 1;
    }
    const std::string quoted = "'" + std::string(spec) + "'";
    if (parts.size() < 4 || parts.size() > 5 || parts[0].empty() ||
        parts[0][0] != 'r')
        return "expects r<router>:<Signal>:<port>:<bit>[:vc], got " + quoted;
    const auto number = [](std::string_view text, int &value) {
        const auto [end, error] =
            std::from_chars(text.data(), text.data() + text.size(), value);
        return error == std::errc() && end == text.data() + text.size() &&
               value >= 0;
    };
    const auto notNumber = [&quoted](std::string_view text) {
        return quoted + ": '" + std::string(text) +
               "' is not a non-negative integer";
    };

    int router = 0;
    if (!number(parts[0].substr(1), router))
        return notNumber(parts[0].substr(1));
    if (router >= config.numNodes())
        return quoted + ": router " + std::to_string(router) +
               " is outside the " + std::to_string(config.width) + "x" +
               std::to_string(config.height) + " mesh";
    const std::optional<SignalClass> signal = signalClassFromName(parts[1]);
    if (!signal)
        return quoted + ": unknown signal class '" + std::string(parts[1]) +
               "'";
    int port = 0;
    while (port < kNumPorts && parts[2] != noc::portName(port))
        ++port;
    if (port == kNumPorts)
        return quoted + ": unknown port '" + std::string(parts[2]) +
               "' (N, E, S, W, L)";
    int vc = -1;
    if (parts.size() > 4 && !number(parts[4], vc))
        return notNumber(parts[4]);
    int bit = 0;
    if (!number(parts[3], bit))
        return notNumber(parts[3]);

    const FaultSite parsed{router, *signal, port, vc,
                           static_cast<unsigned>(bit)};
    const std::vector<FaultSite> sites =
        FaultSiteCatalog::enumerateRouter(config, router);
    if (std::find(sites.begin(), sites.end(), parsed) == sites.end())
        return quoted + " is not a fault site of router " +
               std::to_string(router) +
               ": check the port, the bit range and the vc (given "
               "exactly for per-VC classes)";
    site = parsed;
    return "";
}

} // namespace nocalert::fault
