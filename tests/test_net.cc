/**
 * @file
 * Unit tests for the operand micronetwork: X-Y routing properties
 * (checked exhaustively over all coordinate pairs), hop counting,
 * mesh delivery latency, local bypass, link contention, delivery
 * determinism and reset, the calendar wheel's edge cases, and a
 * seeded differential test of the wheel against a plain
 * (arrival, seq) min-heap.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include "common/rng.hh"
#include "common/stats.hh"
#include "net/mesh.hh"
#include "net/route.hh"
#include "panic_check.hh"

namespace edge::net {
namespace {

using CoordPair = std::tuple<int, int, int, int>;

class RouteAllPairs : public ::testing::TestWithParam<CoordPair>
{
};

TEST_P(RouteAllPairs, PathLengthEqualsManhattanDistance)
{
    auto [r0, c0, r1, c1] = GetParam();
    MeshGeom geom{5, 5};
    Coord src{static_cast<std::uint16_t>(r0),
              static_cast<std::uint16_t>(c0)};
    Coord dst{static_cast<std::uint16_t>(r1),
              static_cast<std::uint16_t>(c1)};
    auto path = routeXY(geom, src, dst);
    EXPECT_EQ(path.size(), hopCount(src, dst));
    // Links must be distinct (no loops under dimension order).
    std::set<LinkId> unique(path.begin(), path.end());
    EXPECT_EQ(unique.size(), path.size());
    for (LinkId l : path)
        EXPECT_LT(l, numLinks(geom));
}

INSTANTIATE_TEST_SUITE_P(
    Exhaustive, RouteAllPairs,
    ::testing::Combine(::testing::Range(0, 5), ::testing::Range(0, 5),
                       ::testing::Range(0, 5), ::testing::Range(0, 5)));

TEST(Route, HopCountIsSymmetric)
{
    Coord a{0, 4}, b{3, 1};
    EXPECT_EQ(hopCount(a, b), hopCount(b, a));
    EXPECT_EQ(hopCount(a, b), 6u);
    EXPECT_EQ(hopCount(a, a), 0u);
}

TEST(Route, SharedPrefixForSameColumnTargets)
{
    // X-then-Y: routes to the same column share the X leg.
    MeshGeom geom{5, 5};
    auto p1 = routeXY(geom, {0, 0}, {3, 2});
    auto p2 = routeXY(geom, {0, 0}, {4, 2});
    ASSERT_GE(p1.size(), 2u);
    EXPECT_EQ(p1[0], p2[0]);
    EXPECT_EQ(p1[1], p2[1]);
}

TEST(Mesh, DeliversAfterHopLatency)
{
    StatSet stats("t");
    MeshParams p;
    p.hopLatency = 1;
    Mesh<int> mesh(p, stats);
    Cycle arrival = mesh.send(10, {0, 0}, {0, 3}, 42);
    EXPECT_EQ(arrival, 13u); // 3 hops x 1 cycle

    int got = -1;
    mesh.deliver(12, [&](Coord, int &&v) { got = v; });
    EXPECT_EQ(got, -1); // not yet
    mesh.deliver(13, [&](Coord, int &&v) { got = v; });
    EXPECT_EQ(got, 42);
    EXPECT_TRUE(mesh.empty());
}

TEST(Mesh, LocalBypassIsFree)
{
    StatSet stats("t");
    Mesh<int> mesh(MeshParams{}, stats);
    EXPECT_EQ(mesh.send(7, {2, 2}, {2, 2}, 1), 7u);
    EXPECT_EQ(stats.counterValue("net.hops"), 0u);
}

TEST(Mesh, HopLatencyScales)
{
    StatSet stats("t");
    MeshParams p;
    p.hopLatency = 3;
    Mesh<int> mesh(p, stats);
    EXPECT_EQ(mesh.send(0, {0, 0}, {2, 2}, 0), 12u); // 4 hops x 3
}

TEST(Mesh, LinkContentionSerialises)
{
    StatSet stats("t");
    Mesh<int> mesh(MeshParams{}, stats);
    // Two messages wanting the same first link in the same cycle.
    Cycle a = mesh.send(0, {0, 0}, {0, 1}, 1);
    Cycle b = mesh.send(0, {0, 0}, {0, 1}, 2);
    EXPECT_EQ(a, 1u);
    EXPECT_EQ(b, 2u); // waited one cycle for the link
    EXPECT_EQ(stats.counterValue("net.queue_cycles"), 1u);
}

TEST(Mesh, DisjointPathsDoNotContend)
{
    StatSet stats("t");
    Mesh<int> mesh(MeshParams{}, stats);
    Cycle a = mesh.send(0, {0, 0}, {0, 1}, 1);
    Cycle b = mesh.send(0, {1, 0}, {1, 1}, 2);
    EXPECT_EQ(a, b);
    EXPECT_EQ(stats.counterValue("net.queue_cycles"), 0u);
}

TEST(Mesh, DeliveryOrderIsArrivalThenSendOrder)
{
    StatSet stats("t");
    Mesh<int> mesh(MeshParams{}, stats);
    mesh.send(0, {0, 0}, {0, 2}, 1); // 2 hops -> arrives 2
    mesh.send(0, {4, 1}, {4, 2}, 2); // 1 hop  -> arrives 1
    mesh.send(1, {3, 1}, {3, 2}, 3); // 1 hop  -> arrives 2
    std::vector<int> order;
    mesh.deliver(10, [&](Coord, int &&v) { order.push_back(v); });
    EXPECT_EQ(order, (std::vector<int>{2, 1, 3}));
}

TEST(Mesh, StatPrefixSeparatesInstances)
{
    StatSet stats("t");
    MeshParams p1;
    MeshParams p2;
    p2.statPrefix = "gcn";
    Mesh<int> a(p1, stats), b(p2, stats);
    a.send(0, {0, 0}, {0, 1}, 1);
    EXPECT_EQ(stats.counterValue("net.messages"), 1u);
    EXPECT_EQ(stats.counterValue("gcn.messages"), 0u);
}

TEST(Mesh, ResetDropsTraffic)
{
    StatSet stats("t");
    Mesh<int> mesh(MeshParams{}, stats);
    mesh.send(0, {0, 0}, {4, 4}, 9);
    EXPECT_EQ(mesh.inFlight(), 1u);
    mesh.reset();
    EXPECT_TRUE(mesh.empty());
    int got = -1;
    mesh.deliver(100, [&](Coord, int &&v) { got = v; });
    EXPECT_EQ(got, -1);
}

TEST(Mesh, RouteOutsideTheMeshPanics)
{
    StatSet stats("t");
    Mesh<int> mesh(MeshParams{}, stats);
    EXPECT_PANIC(mesh.send(0, {0, 0}, {5, 0}, 1), "outside the 5x5");
    EXPECT_PANIC(routeXY(MeshGeom{}, {0, 5}, {0, 0}), "outside the 5x5");
}

TEST(Mesh, NextArrivalOnAnEmptyMeshIsNever)
{
    StatSet stats("t");
    Mesh<int> mesh(MeshParams{}, stats);
    EXPECT_EQ(mesh.nextArrival(), ~Cycle{0});
    mesh.send(3, {0, 0}, {0, 1}, 1);
    mesh.deliver(4, [](Coord, int &&) {});
    EXPECT_EQ(mesh.nextArrival(), ~Cycle{0});
}

TEST(Mesh, ArrivalBeyondTheWheelWaitsThenMovesInInSendOrder)
{
    StatSet stats("t");
    MeshParams p;
    p.hopLatency = 600;
    Mesh<int> mesh(p, stats);
    // 4 hops x 600 = 2400 cycles: past the wheel's span, so the
    // message waits off the wheel and is all the mesh holds.
    ASSERT_GT(Cycle{2400}, Mesh<int>::kWheelSpan);
    EXPECT_EQ(mesh.send(0, {0, 0}, {0, 4}, 1), 2400u);
    EXPECT_EQ(mesh.nextArrival(), 2400u);
    EXPECT_EQ(mesh.inFlight(), 1u);

    std::vector<int> order;
    auto record = [&](Coord, int &&v) { order.push_back(v); };
    // The base passes 2400 - span here: the message moves in...
    mesh.deliver(1500, record);
    EXPECT_TRUE(order.empty());
    EXPECT_EQ(mesh.nextArrival(), 2400u);
    // ...before a later send lands in the same cycle's bucket.
    EXPECT_EQ(mesh.send(1800, {1, 0}, {1, 1}, 2), 2400u);
    mesh.deliver(2399, record);
    EXPECT_TRUE(order.empty());
    mesh.deliver(2400, record);
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
    EXPECT_TRUE(mesh.empty());
}

TEST(Mesh, SendBeforeTheLastDeliveryIsDueNextCall)
{
    StatSet stats("t");
    Mesh<int> mesh(MeshParams{}, stats);
    mesh.send(100, {0, 0}, {0, 1}, 1); // arrives 101
    mesh.deliver(100, [](Coord, int &&) {});
    // A send stamped before the cycle already delivered.
    EXPECT_EQ(mesh.send(50, {2, 2}, {2, 2}, 2), 50u);
    EXPECT_EQ(mesh.nextArrival(), 50u);
    std::vector<int> order;
    mesh.deliver(40, [&](Coord, int &&v) { order.push_back(v); });
    EXPECT_TRUE(order.empty());
    mesh.deliver(60, [&](Coord, int &&v) { order.push_back(v); });
    EXPECT_EQ(order, (std::vector<int>{2}));
    mesh.deliver(101, [&](Coord, int &&v) { order.push_back(v); });
    EXPECT_EQ(order, (std::vector<int>{2, 1}));
}

TEST(Mesh, SameCycleSendFromDeliverArrivesInTheSameCall)
{
    StatSet stats("t");
    Mesh<int> mesh(MeshParams{}, stats);
    mesh.send(0, {0, 0}, {0, 1}, 1); // arrives 1
    mesh.send(0, {3, 0}, {3, 1}, 2); // arrives 1
    std::vector<int> order;
    mesh.deliver(1, [&](Coord, int &&v) {
        order.push_back(v);
        if (v == 1)
            mesh.send(1, {0, 1}, {0, 1}, 3); // local bypass: cycle 1
    });
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_TRUE(mesh.empty());
}

/**
 * The delivery contract, written the obvious way: an (arrival, seq)
 * min-heap. The mesh decides arrival times; this only orders them.
 */
class ReferenceQueue
{
  public:
    void
    push(Cycle arrival, int id)
    {
        _heap.push_back({arrival, _seq++, id});
        std::push_heap(_heap.begin(), _heap.end(), later);
    }

    template <typename Fn>
    void
    deliver(Cycle now, Fn &&fn)
    {
        while (!_heap.empty() && _heap.front().arrival <= now) {
            std::pop_heap(_heap.begin(), _heap.end(), later);
            int id = _heap.back().id;
            _heap.pop_back();
            fn(id);
        }
    }

    std::size_t size() const { return _heap.size(); }
    Cycle
    nextArrival() const
    {
        return _heap.empty() ? ~Cycle{0} : _heap.front().arrival;
    }
    void reset() { _heap.clear(); }

  private:
    struct Entry
    {
        Cycle arrival;
        std::uint64_t seq;
        int id;
    };

    static bool
    later(const Entry &a, const Entry &b)
    {
        return a.arrival != b.arrival ? a.arrival > b.arrival
                                      : a.seq > b.seq;
    }

    std::vector<Entry> _heap;
    std::uint64_t _seq = 0;
};

struct DiffCase
{
    unsigned hopLatency;
    std::uint64_t seed;
};

class MeshDifferential : public ::testing::TestWithParam<DiffCase>
{
};

TEST_P(MeshDifferential, MatchesReferenceHeap)
{
    const DiffCase dc = GetParam();
    StatSet stats("t");
    MeshParams p;
    p.hopLatency = dc.hopLatency;
    Mesh<int> mesh(p, stats);
    ReferenceQueue ref;
    Rng rng(dc.seed);

    auto coord = [&] {
        return Coord{static_cast<std::uint16_t>(rng.below(5)),
                     static_cast<std::uint16_t>(rng.below(5))};
    };
    Cycle clock = 0;
    int nextId = 0;
    std::vector<int> got, want;
    // Messages sent from inside the mesh's deliver callback, keyed by
    // the delivered message that sent them; the reference replays
    // each when it delivers the same message.
    std::map<int, std::pair<Cycle, int>> spawned;
    std::size_t overflowSeen = 0, lateSeen = 0;

    for (int step = 0; step < 20000; ++step) {
        unsigned op = static_cast<unsigned>(rng.below(100));
        if (op < 45) {
            // Mostly at the clock; some stamped before the last
            // delivery, which the wheel keeps off its buckets.
            Cycle at = clock;
            if (op < 5)
                at -= std::min<Cycle>(clock, rng.below(40));
            int id = nextId++;
            Cycle arrival = mesh.send(at, coord(), coord(), id);
            ref.push(arrival, id);
            overflowSeen += arrival >= clock + Mesh<int>::kWheelSpan;
            lateSeen += arrival < clock;
        } else if (op < 85) {
            mesh.deliver(clock, [&](Coord, int &&id) {
                got.push_back(id);
                if (id % 5 == 0) {
                    // Same-cycle local bypass, or a routed send.
                    Coord src = coord();
                    Coord dst = id % 2 ? src : coord();
                    int child = nextId++;
                    spawned[id] = {mesh.send(clock, src, dst, child),
                                   child};
                }
            });
            ref.deliver(clock, [&](int id) {
                want.push_back(id);
                auto it = spawned.find(id);
                if (it != spawned.end())
                    ref.push(it->second.first, it->second.second);
            });
        } else if (op < 99) {
            // Small steps, and jumps that wrap the ring many times.
            clock += op < 97 ? rng.below(4) : rng.below(5000);
        } else if (rng.below(4) == 0) {
            mesh.reset();
            ref.reset();
            clock = rng.below(2) ? 0 : clock;
        }
        ASSERT_EQ(got, want) << "step " << step;
        ASSERT_EQ(mesh.inFlight(), ref.size()) << "step " << step;
        ASSERT_EQ(mesh.empty(), ref.size() == 0) << "step " << step;
        ASSERT_EQ(mesh.nextArrival(), ref.nextArrival())
            << "step " << step;
    }
    // The schedule really reached the wheel's edge cases.
    EXPECT_GT(got.size(), 1000u);
    EXPECT_GT(lateSeen, 0u);
    if (dc.hopLatency > Mesh<int>::kWheelSpan / 4) {
        EXPECT_GT(overflowSeen, 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Schedules, MeshDifferential,
    ::testing::Values(DiffCase{1, 3}, DiffCase{1, 7}, DiffCase{5, 11},
                      DiffCase{150, 13}, DiffCase{400, 17},
                      DiffCase{900, 19}));

} // namespace
} // namespace edge::net
