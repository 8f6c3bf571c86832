#include "noc/signals.hpp"

namespace nocalert::noc {

void
RouterWires::clear(Cycle new_cycle, NodeId new_router)
{
    *this = RouterWires{};
    cycle = new_cycle;
    router = new_router;
}

bool
inputPortQuiescent(const InputPortWires &in, unsigned num_vcs)
{
    if (in.inValid || in.writeEnable != 0 || in.writeDropped != 0 ||
        in.rcWaiting != 0 || in.rcDone != 0 || in.sa1Req != 0 ||
        in.sa1Grant != 0 || in.readEnable != 0 || in.readEmpty != 0 ||
        in.creditSend != 0)
        return false;
    for (unsigned v = 0; v < num_vcs; ++v) {
        const VcSnapshot &vc = in.vc[v];
        if (vc.state != VcState::Idle || vc.occupancy != 0 ||
            vc.headValid || vc.va1CandidateVc >= 0)
            return false;
    }
    return true;
}

bool
outputPortQuiescent(const OutputPortWires &out)
{
    if (out.sa2Req != 0 || out.sa2Grant != 0 || out.outValid ||
        out.creditRecv != 0)
        return false;
    for (unsigned w = 0; w < kMaxVcs; ++w)
        if (out.va2Req[w] != 0 || out.va2Grant[w] != 0)
            return false;
    return true;
}

bool
routerWiresQuiescent(const RouterWires &wires, unsigned num_vcs)
{
    if (wires.ejectValid || wires.xbarFlitsIn != 0 ||
        wires.xbarFlitsOut != 0)
        return false;
    for (int p = 0; p < kNumPorts; ++p) {
        if (wires.xbarRow[p] != 0 || wires.xbarCol[p] != 0)
            return false;
        if (!inputPortQuiescent(wires.in[p], num_vcs))
            return false;
        if (!outputPortQuiescent(wires.out[p]))
            return false;
    }
    return true;
}

} // namespace nocalert::noc
