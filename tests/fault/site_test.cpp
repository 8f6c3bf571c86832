#include "fault/site.hpp"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <utility>

namespace nocalert::fault {
namespace {

noc::NetworkConfig
mesh(int w = 8, int h = 8)
{
    noc::NetworkConfig config;
    config.width = w;
    config.height = h;
    return config;
}

TEST(FaultSites, EveryClassHasTapAndName)
{
    for (int c = 0; c <= static_cast<int>(SignalClass::StSchedOutVc);
         ++c) {
        const auto cls = static_cast<SignalClass>(c);
        EXPECT_STRNE(signalClassName(cls), "?");
        // Tap lookup must not crash and state signals go to CycleStart.
        const noc::TapPoint tap = signalTapPoint(cls);
        if (isStateSignal(cls))
            EXPECT_EQ(tap, noc::TapPoint::CycleStart);
        else
            EXPECT_NE(tap, noc::TapPoint::CycleStart);
    }
}

TEST(FaultSites, CenterRouterHasMoreSitesThanCorner)
{
    const auto cfg = mesh();
    const auto corner = FaultSiteCatalog::enumerateRouter(cfg, 0);
    const auto center =
        FaultSiteCatalog::enumerateRouter(cfg, cfg.nodeAt({4, 4}));
    EXPECT_GT(center.size(), corner.size());
    // A corner router has 3 connected ports vs 5 at the center.
    EXPECT_NEAR(static_cast<double>(corner.size()) / center.size(),
                3.0 / 5.0, 0.15);
}

TEST(FaultSites, CornerSitesOnlyUseConnectedPorts)
{
    const auto cfg = mesh();
    // Node 0 = (0,0): South and West are disconnected.
    for (const FaultSite &site : FaultSiteCatalog::enumerateRouter(cfg, 0))
        EXPECT_TRUE(cfg.portConnected(0, site.port)) << site.describe();
}

TEST(FaultSites, NetworkEnumerationCoversAllRouters)
{
    const auto cfg = mesh(4, 4);
    const auto sites = FaultSiteCatalog::enumerateNetwork(cfg);
    std::set<noc::NodeId> routers;
    for (const FaultSite &site : sites)
        routers.insert(site.router);
    EXPECT_EQ(routers.size(), 16u);
}

TEST(FaultSites, PaperScaleCount)
{
    // The paper reports 205 locations per full 5-port router and
    // 11,808 across the 8x8 mesh; our enumeration is finer-grained
    // (more signal classes) but must be of the same order.
    const auto cfg = mesh();
    const auto center =
        FaultSiteCatalog::enumerateRouter(cfg, cfg.nodeAt({4, 4}));
    EXPECT_GT(center.size(), 205u);
    EXPECT_LT(center.size(), 205u * 10);
}

TEST(FaultSites, SampleIsDeterministic)
{
    const auto cfg = mesh(4, 4);
    const auto a = FaultSiteCatalog::sampleNetwork(cfg, 50, 9);
    const auto b = FaultSiteCatalog::sampleNetwork(cfg, 50, 9);
    ASSERT_EQ(a.size(), 50u);
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(a[i], b[i]);
}

TEST(FaultSites, SampleIsStratifiedAcrossClasses)
{
    const auto cfg = mesh(4, 4);
    const auto sample = FaultSiteCatalog::sampleNetwork(cfg, 100, 1);
    std::map<SignalClass, int> per_class;
    for (const FaultSite &site : sample)
        ++per_class[site.signal];
    // Every signal class present in the full enumeration must appear.
    std::set<SignalClass> all_classes;
    for (const FaultSite &site : FaultSiteCatalog::enumerateNetwork(cfg))
        all_classes.insert(site.signal);
    EXPECT_EQ(per_class.size(), all_classes.size());
}

TEST(FaultSites, SampleZeroMeansAll)
{
    const auto cfg = mesh(4, 4);
    EXPECT_EQ(FaultSiteCatalog::sampleNetwork(cfg, 0, 1).size(),
              FaultSiteCatalog::enumerateNetwork(cfg).size());
}

TEST(FaultSites, DescribeIsInformative)
{
    FaultSite site{12, SignalClass::Sa1Grant, 1, -1, 2};
    const std::string text = site.describe();
    EXPECT_NE(text.find("r12"), std::string::npos);
    EXPECT_NE(text.find("Sa1Grant"), std::string::npos);
    EXPECT_NE(text.find("bit=2"), std::string::npos);
}

TEST(FaultSites, NoVaSitesWithSingleVc)
{
    auto cfg = mesh(4, 4);
    cfg.router.numVcs = 1;
    cfg.router.classes = {{"data", 5}};
    for (const FaultSite &site : FaultSiteCatalog::enumerateNetwork(cfg)) {
        EXPECT_NE(site.signal, SignalClass::Va2Req) << site.describe();
        EXPECT_NE(site.signal, SignalClass::Va2Grant) << site.describe();
        EXPECT_NE(site.signal, SignalClass::Va1Candidate)
            << site.describe();
    }
}

/** The spec parseFaultSite reads for @p site. */
std::string
specOf(const FaultSite &site)
{
    std::string spec = "r" + std::to_string(site.router) + ":" +
                       signalClassName(site.signal) + ":" +
                       noc::portName(site.port) + ":" +
                       std::to_string(site.bit);
    if (site.vc >= 0)
        spec += ":" + std::to_string(site.vc);
    return spec;
}

TEST(FaultSiteParser, EveryCatalogSiteRoundTrips)
{
    const auto cfg = mesh();
    for (const noc::NodeId router : {0, cfg.nodeAt({4, 4})}) {
        for (const FaultSite &want :
             FaultSiteCatalog::enumerateRouter(cfg, router)) {
            FaultSite got;
            EXPECT_EQ(parseFaultSite(specOf(want), cfg, got), "")
                << specOf(want);
            EXPECT_EQ(got, want) << specOf(want);
        }
    }
}

TEST(FaultSiteParser, ReadsWireAndPerVcSites)
{
    const auto cfg = mesh();
    FaultSite site;
    ASSERT_EQ(parseFaultSite("r36:Sa1Grant:W:0", cfg, site), "");
    EXPECT_EQ(site, (FaultSite{36, SignalClass::Sa1Grant,
                               noc::portIndex(noc::Port::West), -1, 0}));
    ASSERT_EQ(parseFaultSite("r5:StVcState:E:1:3", cfg, site), "");
    EXPECT_EQ(site, (FaultSite{5, SignalClass::StVcState,
                               noc::portIndex(noc::Port::East), 3, 1}));
}

TEST(FaultSiteParser, RejectsWhatTheCatalogDoesNotList)
{
    const auto cfg = mesh(4, 4);
    const FaultSite untouched{7, SignalClass::RcDone, 2, -1, 1};
    // Each spec with a fragment its error must quote.
    const std::pair<const char *, const char *> cases[] = {
        {"r5:Sa2Grant:E", "expects r<router>"},
        {"r5:Sa2Grant:E:2:0:1", "expects r<router>"},
        {"5:Sa2Grant:E:2", "expects r<router>"},
        {"rabc:Sa2Grant:E:2", "'abc' is not a non-negative integer"},
        {"r5x:Sa2Grant:E:2", "'5x' is not"},
        {"r5:Sa2Grant:E:x", "'x' is not"},
        {"r5:Sa2Grant:E:-1", "'-1' is not"},
        {"r5:Sa2Grant:E:2:", "'' is not"},
        {"r5:Sa2Grant:E:2:4294967295", "'4294967295' is not"},
        {"r16:Sa2Grant:E:2", "router 16 is outside the 4x4 mesh"},
        {"r5:Sa3Grant:E:2", "unknown signal class 'Sa3Grant'"},
        {"r5:Sa2Grant:X:2", "unknown port 'X'"},
        // Off the catalog: a wire given a vc (the vc-0 default of a
        // hand-built site), a per-VC register without one, a VC past
        // the count, a bit past its field, an unconnected port.
        {"r5:Sa1Grant:W:0:0", "is not a fault site of router 5"},
        {"r5:StVcState:E:0", "is not a fault site"},
        {"r5:Va2Grant:E:0:9", "is not a fault site"},
        {"r5:Sa2Grant:E:99", "is not a fault site"},
        {"r0:Sa2Grant:W:2", "is not a fault site of router 0"},
    };
    for (const auto &[spec, fragment] : cases) {
        FaultSite site = untouched;
        const std::string error = parseFaultSite(spec, cfg, site);
        EXPECT_NE(error.find(fragment), std::string::npos)
            << spec << ": " << error;
        EXPECT_EQ(site, untouched) << spec;
    }
}

} // namespace
} // namespace nocalert::fault
