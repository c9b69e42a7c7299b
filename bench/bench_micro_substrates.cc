/**
 * @file
 * google-benchmark microbenchmarks of the simulator substrates
 * themselves (host-side performance, not simulated cycles): cache
 * timestamp accesses, mesh routing and send/deliver, sparse-memory
 * traffic, block construction + placement, functional reference
 * execution, and a full end-to-end simulated kernel. These guard
 * against accidental slowdowns of the simulator.
 */

#include <benchmark/benchmark.h>

#include "common/rng.hh"
#include "compiler/placement.hh"
#include "compiler/ref_executor.hh"
#include "mem/cache.hh"
#include "mem/sparse_memory.hh"
#include "net/mesh.hh"
#include "sim/simulator.hh"
#include "workloads/workloads.hh"

using namespace edge;

static void
BM_CacheAccess(benchmark::State &state)
{
    StatSet stats("bm");
    mem::CacheParams p;
    p.sizeBytes = 32 * 1024;
    mem::Cache cache(p, nullptr, stats);
    Rng rng(7);
    Cycle now = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            cache.access(++now, rng.below(1 << 20), false));
    }
}
BENCHMARK(BM_CacheAccess);

static void
BM_SparseMemoryRw(benchmark::State &state)
{
    mem::SparseMemory mem;
    Rng rng(11);
    for (auto _ : state) {
        Addr a = rng.below(1 << 22);
        mem.write(a, 8, a);
        benchmark::DoNotOptimize(mem.read(a, 8));
    }
}
BENCHMARK(BM_SparseMemoryRw);

static void
BM_MeshSendDeliver(benchmark::State &state)
{
    StatSet stats("bm");
    net::MeshParams p;
    net::Mesh<std::uint64_t> mesh(p, stats);
    Rng rng(13);
    Cycle now = 0;
    std::uint64_t sink = 0;
    for (auto _ : state) {
        net::Coord src{static_cast<std::uint16_t>(rng.below(5)),
                       static_cast<std::uint16_t>(rng.below(5))};
        net::Coord dst{static_cast<std::uint16_t>(rng.below(5)),
                       static_cast<std::uint16_t>(rng.below(5))};
        mesh.send(now, src, dst, sink);
        mesh.deliver(now,
                     [&](net::Coord, std::uint64_t &&v) { sink += v; });
        ++now;
    }
    benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_MeshSendDeliver);

static void
BM_RouteXY(benchmark::State &state)
{
    net::MeshGeom geom{5, 5};
    Rng rng(17);
    for (auto _ : state) {
        net::Coord src{static_cast<std::uint16_t>(rng.below(5)),
                       static_cast<std::uint16_t>(rng.below(5))};
        net::Coord dst{static_cast<std::uint16_t>(rng.below(5)),
                       static_cast<std::uint16_t>(rng.below(5))};
        benchmark::DoNotOptimize(net::routeXY(geom, src, dst));
    }
}
BENCHMARK(BM_RouteXY);

static void
BM_BuildAndPlaceKernel(benchmark::State &state)
{
    for (auto _ : state) {
        wl::KernelParams kp;
        kp.iterations = 16;
        isa::Program prog = wl::build("gzipish", kp);
        compiler::GridGeom geom;
        for (BlockId b = 0; b < prog.numBlocks(); ++b) {
            benchmark::DoNotOptimize(
                compiler::placeBlock(prog.block(b), geom));
        }
    }
}
BENCHMARK(BM_BuildAndPlaceKernel);

static void
BM_RefExecutor(benchmark::State &state)
{
    wl::KernelParams kp;
    kp.iterations = 1000;
    isa::Program prog = wl::build("bzip2ish", kp);
    for (auto _ : state) {
        compiler::RefExecutor ref(prog);
        benchmark::DoNotOptimize(ref.run(100000));
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            1000);
}
BENCHMARK(BM_RefExecutor);

static void
BM_EndToEndSimulatedKernel(benchmark::State &state)
{
    for (auto _ : state) {
        wl::KernelParams kp;
        kp.iterations = 200;
        sim::Simulator s(wl::build("twolfish", kp),
                         sim::Configs::dsre());
        benchmark::DoNotOptimize(s.run());
    }
}
BENCHMARK(BM_EndToEndSimulatedKernel)->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
