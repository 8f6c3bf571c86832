#include "noc/config.hpp"

#include <gtest/gtest.h>

#include "noc/types.hpp"

namespace nocalert::noc {
namespace {

TEST(Types, PortNamesAndIndices)
{
    EXPECT_STREQ(portName(portIndex(Port::North)), "N");
    EXPECT_STREQ(portName(portIndex(Port::Local)), "L");
    EXPECT_STREQ(portName(7), "?");
    EXPECT_EQ(portFromIndex(1), Port::East);
}

TEST(Types, OppositePorts)
{
    EXPECT_EQ(oppositePort(portIndex(Port::North)),
              portIndex(Port::South));
    EXPECT_EQ(oppositePort(portIndex(Port::East)),
              portIndex(Port::West));
    EXPECT_EQ(oppositePort(portIndex(Port::West)),
              portIndex(Port::East));
    EXPECT_EQ(oppositePort(portIndex(Port::South)),
              portIndex(Port::North));
}

TEST(Types, PortAxes)
{
    EXPECT_EQ(portAxis(portIndex(Port::North)), Axis::Y);
    EXPECT_EQ(portAxis(portIndex(Port::South)), Axis::Y);
    EXPECT_EQ(portAxis(portIndex(Port::East)), Axis::X);
    EXPECT_EQ(portAxis(portIndex(Port::West)), Axis::X);
    EXPECT_EQ(portAxis(portIndex(Port::Local)), Axis::None);
    EXPECT_EQ(portAxis(-1), Axis::None);
}

TEST(Types, MeshPortPredicate)
{
    EXPECT_TRUE(isMeshPort(0));
    EXPECT_TRUE(isMeshPort(3));
    EXPECT_FALSE(isMeshPort(4)); // Local
    EXPECT_FALSE(isMeshPort(-1));
}

TEST(Config, CoordinateRoundTrip)
{
    NetworkConfig config;
    config.width = 5;
    config.height = 3;
    for (NodeId n = 0; n < config.numNodes(); ++n)
        EXPECT_EQ(config.nodeAt(config.coordOf(n)), n);
    EXPECT_EQ(config.coordOf(0), (Coord{0, 0}));
    EXPECT_EQ(config.coordOf(7), (Coord{2, 1}));
    EXPECT_EQ(toString(Coord{2, 1}), "(2,1)");
}

TEST(Config, Neighbors)
{
    NetworkConfig config;
    config.width = 4;
    config.height = 4;
    const NodeId center = config.nodeAt({1, 1});
    EXPECT_EQ(config.neighborOf(center, portIndex(Port::North)),
              config.nodeAt({1, 2}));
    EXPECT_EQ(config.neighborOf(center, portIndex(Port::South)),
              config.nodeAt({1, 0}));
    EXPECT_EQ(config.neighborOf(center, portIndex(Port::East)),
              config.nodeAt({2, 1}));
    EXPECT_EQ(config.neighborOf(center, portIndex(Port::West)),
              config.nodeAt({0, 1}));
    EXPECT_EQ(config.neighborOf(center, portIndex(Port::Local)),
              kInvalidNode);
    // Edges fall off the mesh.
    EXPECT_EQ(config.neighborOf(0, portIndex(Port::West)),
              kInvalidNode);
    EXPECT_EQ(config.neighborOf(0, portIndex(Port::South)),
              kInvalidNode);
}

TEST(Config, PortConnectivity)
{
    NetworkConfig config;
    config.width = 4;
    config.height = 4;
    // Corner (0,0): only North, East, Local.
    EXPECT_TRUE(config.portConnected(0, portIndex(Port::North)));
    EXPECT_TRUE(config.portConnected(0, portIndex(Port::East)));
    EXPECT_FALSE(config.portConnected(0, portIndex(Port::South)));
    EXPECT_FALSE(config.portConnected(0, portIndex(Port::West)));
    EXPECT_TRUE(config.portConnected(0, portIndex(Port::Local)));
    // Center: everything.
    const NodeId center = config.nodeAt({2, 2});
    for (int p = 0; p < kNumPorts; ++p)
        EXPECT_TRUE(config.portConnected(center, p));
}

TEST(Config, HopDistance)
{
    NetworkConfig config;
    config.width = 8;
    config.height = 8;
    EXPECT_EQ(config.hopDistance(0, 0), 0);
    EXPECT_EQ(config.hopDistance(config.nodeAt({0, 0}),
                                 config.nodeAt({7, 7})),
              14);
    EXPECT_EQ(config.hopDistance(config.nodeAt({3, 2}),
                                 config.nodeAt({1, 5})),
              5);
}

/** The VCs vcClass() assigns to @p cls, in increasing order. */
std::vector<unsigned>
enumerateClassVcs(const RouterParams &params, unsigned cls)
{
    std::vector<unsigned> vcs;
    for (unsigned v = 0; v < params.numVcs; ++v)
        if (params.vcClass(v) == cls)
            vcs.push_back(v);
    return vcs;
}

std::vector<unsigned>
rangeVcs(const RouterParams::VcRange &range)
{
    std::vector<unsigned> vcs;
    for (unsigned v = range.lo; v < range.hi; ++v)
        vcs.push_back(v);
    return vcs;
}

TEST(Config, VcClassPartition)
{
    RouterParams params; // 4 VCs, 2 classes
    EXPECT_EQ(params.vcClass(0), 0u);
    EXPECT_EQ(params.vcClass(1), 0u);
    EXPECT_EQ(params.vcClass(2), 1u);
    EXPECT_EQ(params.vcClass(3), 1u);
    EXPECT_EQ(rangeVcs(params.classVcRange(0)),
              (std::vector<unsigned>{0, 1}));
    EXPECT_EQ(rangeVcs(params.classVcRange(1)),
              (std::vector<unsigned>{2, 3}));
    EXPECT_EQ(params.classLength(0), 1);
    EXPECT_EQ(params.classLength(1), 5);

    // The range is vcClass()'s partition for every VC count and class
    // count validate() accepts (and empty past the last class).
    for (unsigned vcs = 1; vcs <= 8; ++vcs) {
        for (unsigned classes = 1; classes <= vcs; ++classes) {
            RouterParams p;
            p.numVcs = vcs;
            p.classes.assign(classes, {"c", 1});
            p.validate();
            for (unsigned cls = 0; cls <= classes; ++cls) {
                EXPECT_EQ(rangeVcs(p.classVcRange(cls)),
                          enumerateClassVcs(p, cls))
                    << vcs << " VCs, " << classes << " classes, class "
                    << cls;
            }
        }
    }
}

TEST(Config, UnevenVcClassPartition)
{
    RouterParams params;
    params.numVcs = 3;
    EXPECT_EQ(params.vcClass(0), 0u);
    EXPECT_EQ(params.vcClass(1), 0u);
    EXPECT_EQ(params.vcClass(2), 1u);
    EXPECT_EQ(rangeVcs(params.classVcRange(0)),
              enumerateClassVcs(params, 0));
    EXPECT_EQ(rangeVcs(params.classVcRange(1)),
              enumerateClassVcs(params, 1));
    // Every class owns at least one VC.
    EXPECT_LT(params.classVcRange(0).lo, params.classVcRange(0).hi);
    EXPECT_LT(params.classVcRange(1).lo, params.classVcRange(1).hi);
}

TEST(Config, ValidationRejectsBadParameters)
{
    NetworkConfig config;
    config.width = 1;
    EXPECT_EXIT(config.validate(), testing::ExitedWithCode(1),
                "at least 2x2");

    NetworkConfig vcs;
    vcs.router.numVcs = 9;
    EXPECT_EXIT(vcs.validate(), testing::ExitedWithCode(1), "numVcs");

    NetworkConfig depth;
    depth.router.bufferDepth = 0;
    EXPECT_EXIT(depth.validate(), testing::ExitedWithCode(1),
                "bufferDepth");

    NetworkConfig classes;
    classes.router.classes = {};
    EXPECT_EXIT(classes.validate(), testing::ExitedWithCode(1),
                "message class");

    NetworkConfig longpkt;
    longpkt.router.classes = {{"data", 9}}; // exceeds depth 5
    EXPECT_EXIT(longpkt.validate(), testing::ExitedWithCode(1),
                "exceed");

    NetworkConfig toomany;
    toomany.router.numVcs = 1;
    EXPECT_EXIT(toomany.validate(), testing::ExitedWithCode(1),
                "more message classes");
}

TEST(Config, RoutingAlgoNames)
{
    EXPECT_STREQ(routingAlgoName(RoutingAlgo::XY), "XY");
    EXPECT_STREQ(routingAlgoName(RoutingAlgo::O1Turn), "O1Turn");
}

} // namespace
} // namespace nocalert::noc
