/**
 * @file
 * Regenerates Table 1: the complete invariant catalog with module
 * class, guarded correctness conditions (Figure 3 mapping), risk
 * level, applicability, and the per-checker hardware cost — the
 * paper's claim that each checker is far cheaper than the module it
 * guards, made quantitative.
 */

#include <cstdio>

#include "core/invariant.hpp"
#include "hw/checkcost.hpp"
#include "hw/modules.hpp"
#include "util/table.hpp"

using namespace nocalert;

namespace {

std::string
conditionsOf(const core::InvariantInfo &info)
{
    std::string out;
    if (info.conditions & core::kBoundedDelivery)
        out += "BD ";
    if (info.conditions & core::kNoFlitDrop)
        out += "FD ";
    if (info.conditions & core::kNoNewFlitGeneration)
        out += "NG ";
    if (info.conditions & core::kNoCorruptionOrMixing)
        out += "CM ";
    if (!out.empty())
        out.pop_back();
    return out;
}

std::string
riskOf(const core::InvariantInfo &info)
{
    switch (info.risk) {
      case core::RiskLevel::Low: return "low";
      case core::RiskLevel::PermanentSensitive: return "perm-sens";
      case core::RiskLevel::Standard: return "std";
    }
    return "?";
}

std::string
appliesOf(const core::InvariantInfo &info)
{
    std::string out;
    if (info.atomicOnly)
        out += "atomic ";
    if (info.nonAtomicOnly)
        out += "non-atomic ";
    if (info.minimalOnly)
        out += "minimal ";
    if (info.needsVcs)
        out += "VCs ";
    if (out.empty())
        return "always";
    out.pop_back();
    return out;
}

} // namespace

int
main()
{
    noc::NetworkConfig config; // paper baseline: 8x8, 4 VCs
    const hw::GateLibrary &lib = hw::GateLibrary::typical65nm();

    std::printf("Table 1 — the 32 NoCAlert invariances (baseline "
                "router: 5 ports, %u VCs, %u-flit buffers)\n",
                config.router.numVcs, config.router.bufferDepth);
    std::printf("Conditions: BD=bounded delivery, FD=no flit drop, "
                "NG=no new flit generation, CM=no corruption/mixing\n\n");

    Table table({"#", "invariant", "module", "conds", "risk",
                 "applies", "gates", "area um2"});
    double checker_total = 0;
    for (const core::InvariantInfo &info : core::invariantCatalog()) {
        const hw::GateCounts gates = hw::checkerGates(info.id, config);
        const double area = lib.areaUm2(gates);
        if (core::invariantApplies(info, config.router))
            checker_total += area;
        table.addRow({std::to_string(core::invariantIndex(info.id)),
                      info.name, core::moduleClassName(info.module),
                      conditionsOf(info), riskOf(info), appliesOf(info),
                      Table::num(gates.total(), 0),
                      Table::num(area, 0)});
    }
    table.print();

    const double router_area = lib.areaUm2(hw::routerTotal(config));
    const double control_area =
        lib.areaUm2(hw::routerControlLogic(config));
    std::printf("\nrouter area:        %10.0f um2\n", router_area);
    std::printf("control logic area: %10.0f um2 (%.1f%% of router)\n",
                control_area, 100.0 * control_area / router_area);
    std::printf("all checkers:       %10.0f um2 (%.1f%% of router, "
                "%.1f%% of the control logic they guard)\n",
                checker_total, 100.0 * checker_total / router_area,
                100.0 * checker_total / control_area);
    return 0;
}
