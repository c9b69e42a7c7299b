/**
 * @file
 * The repository benchmark. One invocation runs one named
 * workload for a fixed time as a closed loop of simulator cells, checks
 * every cell's output, and prints the end-to-end metrics (or, with
 * --trace 1, the per-layer metrics) as the last line of stdout. It
 * measures the simulator from outside: every number comes from timing
 * the benchmark's own calls into the layers' public functions
 * (wl::build, Simulator::prepare / runShared, the thread pool behind
 * sim::RunPool, super::chaosSweepIsolated on a super::Supervisor,
 * triage::resultToJson) or from the counters the simulator already
 * snapshots into sim::RunResult. See README.md for the workloads, the
 * metrics and how to read a traced run.
 */

#include <sys/resource.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/build_info.hh"
#include "common/hostinfo.hh"
#include "common/thread_pool.hh"
#include "sim/simulator.hh"
#include "sim/sweep.hh"
#include "super/campaign.hh"
#include "super/supervisor.hh"
#include "super/worker.hh"
#include "trace.hh"
#include "triage/result_json.hh"
#include "workloads/workloads.hh"

using namespace edge;
using perfbench::Clock;
using perfbench::Timed;
using perfbench::Tracer;

namespace {

/** fsync(2) calls this process has made (the result log's flushes). */
std::atomic<std::uint64_t> g_fsyncs{0};

} // namespace

/**
 * Counts the journal's fsyncs from outside the log: this definition
 * takes the place of libc's for every call linked into this binary,
 * then makes the same system call.
 */
extern "C" int
fsync(int fd)
{
    g_fsyncs.fetch_add(1, std::memory_order_relaxed);
    return static_cast<int>(::syscall(SYS_fsync, fd));
}

namespace {

// --- workload shape ------------------------------------------------------
//
// Every workload runs min(4, nproc) cells at a time, so a pass spreads
// over every host CPU; the in-process workloads carry several input seeds
// per kernel to fill the pool. Isolated cells are long, and a pass is one
// sweep of many of them, so that the supervisor's occasional 100 ms reap
// stall moves the rate by a few percent. README.md gives the measured
// figures.

constexpr std::uint64_t kGridIters = 300;
constexpr unsigned kGridInputSeeds = 2;
constexpr std::uint64_t kStormIters = 1500;
constexpr std::uint64_t kStallIters = 2500;
constexpr unsigned kLongInputSeeds = 4;
constexpr std::uint64_t kSweepIters = 1000;
constexpr unsigned kSweepCellsPerPass = 32;
constexpr Cycle kMaxCycles = 50'000'000;
constexpr unsigned kMaxThreads = 4;

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    unsigned threads = 0; ///< 0 = min(4, hardware threads)
    std::string expectPath;
    std::string recordPath;
    std::string workDir = ".";
    std::string sourceHash = "unknown";
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\n"
                 "usage: perfbench --workload <name> --seed N "
                 "--seconds S --trace 0|1 --expect <file>\n"
                 "                 [--threads N] [--work-dir <dir>] "
                 "[--source-hash H]\n"
                 "       perfbench --workload <name> --seed N "
                 "--record <file> [--threads N]\n"
                 "workloads: paper-grid reexec-storm memory-stall "
                 "isolated-chaos-sweep\n",
                 why);
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + arg).c_str());
        std::string v = argv[++i];
        char *end = nullptr;
        auto number = [&](double lo, double hi) {
            double x = std::strtod(v.c_str(), &end);
            if (end == v.c_str() || *end != '\0' || !(x >= lo && x <= hi))
                usage(("bad value for " + arg + ": " + v).c_str());
            return x;
        };
        if (arg == "--workload")
            a.workload = v;
        else if (arg == "--seed")
            a.seed = std::strtoull(v.c_str(), &end, 10);
        else if (arg == "--seconds")
            a.seconds = number(0.0, 3600.0);
        else if (arg == "--trace")
            a.trace = number(0, 1) != 0.0;
        else if (arg == "--threads")
            a.threads = static_cast<unsigned>(number(1, kMaxThreads));
        else if (arg == "--expect")
            a.expectPath = v;
        else if (arg == "--record")
            a.recordPath = v;
        else if (arg == "--work-dir")
            a.workDir = v;
        else if (arg == "--source-hash")
            a.sourceHash = v;
        else
            usage(("unknown option " + arg).c_str());
        if (arg == "--seed" && (end == v.c_str() || *end != '\0'))
            usage(("bad value for --seed: " + v).c_str());
    }
    if (a.workload.empty())
        usage("--workload is required");
    if (a.expectPath.empty() && a.recordPath.empty())
        usage("--expect is required");
    return a;
}

// --- workloads -----------------------------------------------------------

std::uint64_t
splitmix(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/** Input seed number `stream` of a run seeded with `seed`. */
std::uint64_t
deriveSeed(std::uint64_t seed, std::uint64_t stream)
{
    return 1 + splitmix(splitmix(seed) ^ stream) % 1'000'000'000;
}

struct Cell
{
    std::string key; ///< kernel/mechanism/input seed[/chaos seed]
    std::string mech;
    std::size_t prog = 0; ///< index into Workload::progs
    core::MachineConfig machine;
    std::uint64_t sweepSeed = 0; ///< isolated cells: the sweep seed
};

struct Workload
{
    std::string name;
    /** A pass is one sweep in forked workers under a Supervisor;
     *  otherwise the cells run in process on a thread pool. */
    bool isolated = false;
    std::vector<triage::ProgramRef> progs;
    std::vector<Cell> cells; ///< one pass, in run order
};

sim::ChaosSweepParams
sweepParams(std::vector<std::uint64_t> sweep_seeds)
{
    sim::ChaosSweepParams p;
    p.seeds = std::move(sweep_seeds);
    p.configs = {"dsre"};
    p.profile = chaos::Profile::Heavy;
    p.checkInvariants = true;
    p.maxCycles = kMaxCycles;
    p.threads = 1;
    return p;
}

/** The workload named `name`, with every input drawn from `seed`. */
bool
makeWorkload(const std::string &name, std::uint64_t seed, Workload *w)
{
    w->name = name;
    auto addProg = [&](const std::string &kernel, std::uint64_t iters,
                       std::uint64_t input_seed) {
        triage::ProgramRef ref;
        ref.kernel = kernel;
        ref.params.iterations = iters;
        ref.params.seed = input_seed;
        w->progs.push_back(ref);
        return w->progs.size() - 1;
    };
    auto addCell = [&](std::size_t prog, const std::string &mech,
                       core::MachineConfig machine) {
        const triage::ProgramRef &ref = w->progs[prog];
        Cell c;
        c.mech = mech;
        c.prog = prog;
        c.key = ref.kernel + "/" + mech + "/" +
                std::to_string(ref.params.seed);
        c.machine = machine;
        c.machine.rngSeed = ref.params.seed;
        w->cells.push_back(std::move(c));
    };
    auto grid = [&](const std::vector<std::string> &kernels,
                    const std::vector<std::string> &mechs,
                    std::uint64_t iters, unsigned input_seeds,
                    void (*tweak)(core::MachineConfig &)) {
        for (const std::string &k : kernels)
            for (unsigned j = 0; j < input_seeds; ++j) {
                std::size_t p = addProg(k, iters, deriveSeed(seed, j));
                for (const std::string &m : mechs) {
                    core::MachineConfig cfg = sim::Configs::byName(m);
                    if (tweak)
                        tweak(cfg);
                    addCell(p, m, cfg);
                }
            }
    };

    if (name == "paper-grid") {
        grid(wl::kernelNames(), sim::Configs::allNames(), kGridIters,
             kGridInputSeeds, nullptr);
    } else if (name == "reexec-storm") {
        grid({"parserish", "swimish", "bzip2ish"},
             {"dsre", "dsre-vp", "blind-flush"}, kStormIters,
             kLongInputSeeds, nullptr);
    } else if (name == "memory-stall") {
        // Fig 9's slowest point, with the L2 shrunk below the kernels'
        // working sets so most accesses go to DRAM.
        grid({"mcfish", "artish", "equakeish"}, {"storesets-flush", "dsre"},
             kStallIters, kLongInputSeeds, [](core::MachineConfig &cfg) {
                 cfg.mem.l2HitLatency = 24;
                 cfg.mem.dramLatency = 300;
                 cfg.mem.l2SizeBytes = 64 * 1024;
             });
    } else if (name == "isolated-chaos-sweep") {
        w->isolated = true;
        std::size_t p = addProg("bzip2ish", kSweepIters, deriveSeed(seed, 0));
        for (unsigned i = 0; i < kSweepCellsPerPass; ++i) {
            std::uint64_t s = deriveSeed(seed, 1000 + i);
            sim::SweepCell sc = sim::sweepCells(sweepParams({s})).front();
            addCell(p, sc.config, sc.machine);
            w->cells.back().machine = sc.machine; // keep the sweep's seed
            w->cells.back().sweepSeed = s;
            w->cells.back().key += '/';
            w->cells.back().key += std::to_string(s);
        }
    } else {
        return false;
    }
    return true;
}

// --- output check --------------------------------------------------------

/** A cell's recorded simulated stats; all must match exactly. */
struct Expected
{
    std::uint64_t cycles = 0, insts = 0, violations = 0, resends = 0,
                  flushes = 0, injections = 0, checks = 0;
};

Expected
statsOf(const sim::RunResult &r)
{
    return {r.cycles,       r.committedInsts,
            r.violations,   r.resends,
            r.ctrlFlushes + r.violFlushes,
            r.injections.total(), r.invariantChecks};
}

std::string
expectedLine(const std::string &workload, std::uint64_t seed,
             const std::string &key, const Expected &e)
{
    std::ostringstream os;
    os << workload << '\t' << seed << '\t' << key << '\t' << e.cycles << '\t'
       << e.insts << '\t' << e.violations << '\t' << e.resends << '\t'
       << e.flushes << '\t' << e.injections << '\t' << e.checks;
    return os.str();
}

/**
 * The recorded stats for (workload, seed). Fails on a missing,
 * unreadable or malformed file: a check that cannot read its
 * reference must not pass.
 */
bool
loadExpected(const std::string &path, const std::string &workload,
             std::uint64_t seed, std::map<std::string, Expected> *out,
             std::string *err)
{
    std::ifstream in(path);
    if (!in) {
        *err = "cannot read expectations file " + path;
        return false;
    }
    std::string line;
    unsigned lineno = 0;
    bool any = false;
    while (std::getline(in, line)) {
        ++lineno;
        if (line.empty() || line[0] == '#')
            continue;
        any = true;
        std::istringstream ls(line);
        std::string wname, key;
        std::uint64_t s = 0;
        Expected e;
        if (!(ls >> wname >> s >> key >> e.cycles >> e.insts >>
              e.violations >> e.resends >> e.flushes >> e.injections >>
              e.checks)) {
            *err = path + ":" + std::to_string(lineno) + ": malformed line";
            return false;
        }
        if (wname == workload && s == seed && !out->emplace(key, e).second) {
            *err = path + ":" + std::to_string(lineno) + ": duplicate cell " +
                   key;
            return false;
        }
    }
    if (in.bad() || !any) {
        *err = "expectations file " + path + " is unreadable or empty";
        return false;
    }
    return true;
}

/** "" when the cell passes, else why it failed. */
std::string
checkCell(const Cell &cell, const sim::RunResult &r,
          const std::map<std::string, Expected> &expected)
{
    if (!r.error.ok())
        return "SimError: " + r.error.format();
    if (!r.halted)
        return "did not halt";
    if (!r.archMatch)
        return "architectural state differs from the reference";
    if (expected.empty())
        return "";
    auto it = expected.find(cell.key);
    if (it == expected.end())
        return "no recorded stats for this cell";
    Expected got = statsOf(r);
    const Expected &want = it->second;
    static const std::pair<const char *, std::uint64_t Expected::*>
        kFields[] = {{"cycles", &Expected::cycles},
                     {"insts", &Expected::insts},
                     {"violations", &Expected::violations},
                     {"resends", &Expected::resends},
                     {"flushes", &Expected::flushes},
                     {"injections", &Expected::injections},
                     {"invariant checks", &Expected::checks}};
    for (const auto &[what, field] : kFields)
        if (got.*field != want.*field)
            return std::string(what) + " " + std::to_string(got.*field) +
                   " != recorded " + std::to_string(want.*field);
    return "";
}

// --- statistics ----------------------------------------------------------

/** Linear-interpolated percentile, p in [0, 100]. */
double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    double idx = p / 100.0 * static_cast<double>(v.size() - 1);
    std::size_t lo = static_cast<std::size_t>(idx);
    std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (idx - static_cast<double>(lo));
}

double
median(std::vector<double> v)
{
    return percentile(std::move(v), 50.0);
}

// --- set-up and passes ---------------------------------------------------

/** What one set-up leaves for the timed section. */
struct Prepared
{
    std::vector<std::unique_ptr<sim::Simulator>> sims; ///< per program
    std::unique_ptr<super::Supervisor> supervisor;     ///< isolated only
    std::uint64_t refInsts = 0;
};

struct Context
{
    const Workload &w;
    unsigned threads; ///< pool threads, or concurrent workers
    Tracer &tracer;
    ThreadPool *pool; ///< in-process workloads only
    std::string journalDir;
    unsigned setups = 0; ///< set-ups so far (names their journals)
};

/** Build every kernel, run its reference execution, open the journal. */
Prepared
setUp(Context &cx)
{
    Prepared p;
    Timed setup(cx.tracer, "setup");
    for (const triage::ProgramRef &ref : cx.w.progs) {
        Timed t(cx.tracer, "workloads.build", setup.id());
        isa::Program prog = wl::build(ref.kernel, ref.params);
        t.stop();
        p.sims.push_back(std::make_unique<sim::Simulator>(
            std::move(prog), cx.w.cells.front().machine));
    }
    auto prepare = [&](std::size_t i) {
        Timed t(cx.tracer, "sim.prepare", setup.id());
        p.sims[i]->prepare();
        return 0;
    };
    if (cx.pool) {
        // Distinct programs are prepared concurrently, as RunPool does.
        parallelIndex(*cx.pool, p.sims.size(), prepare);
    } else {
        prepare(0); // the isolated workload has one program
    }
    for (auto &s : p.sims)
        p.refInsts += s->refDynInsts();
    if (cx.w.isolated) {
        Timed t(cx.tracer, "super.open", setup.id());
        super::SupervisorOptions opts;
        opts.jobs = cx.threads;
        opts.cellTimeoutMs = 120'000;
        opts.journalPath =
            cx.journalDir + "/journal-" + std::to_string(cx.setups);
        p.supervisor = std::make_unique<super::Supervisor>(opts);
        p.supervisor->runAll({}); // opens the journal
        if (!p.supervisor->journal().isOpen()) {
            std::fprintf(stderr, "perfbench: cannot open journal %s\n",
                         opts.journalPath.c_str());
            std::exit(2);
        }
    }
    return p;
}

/** Set up into *out; returns the wall seconds it took. */
double
timedSetUp(Context &cx, Prepared *out)
{
    *out = Prepared{};
    Clock::time_point t0 = Clock::now();
    *out = setUp(cx);
    ++cx.setups;
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Set up once more and throw the result away, journal included. */
double
spareSetUp(Context &cx)
{
    Prepared spare;
    double secs = timedSetUp(cx, &spare);
    std::string journal =
        spare.supervisor ? spare.supervisor->journal().path() : "";
    spare = Prepared{};
    if (!journal.empty()) {
        std::error_code ec;
        std::filesystem::remove_all(journal, ec);
    }
    return secs;
}

struct CellRun
{
    sim::RunResult result;
    double ms = 0.0;
};

/** The isolated workload's pass: one supervised sweep of every cell. */
std::vector<CellRun>
runSweep(Context &cx, Prepared &p, std::uint64_t parent)
{
    const std::vector<Cell> &cells = cx.w.cells;
    std::vector<std::uint64_t> seeds;
    for (const Cell &c : cells)
        seeds.push_back(c.sweepSeed);
    Timed t(cx.tracer, "super.sweep", parent);
    sim::ChaosSweepReport rep = super::chaosSweepIsolated(
        sweepParams(std::move(seeds)), cx.w.progs.front(), *p.supervisor);
    t.stop();
    // A cell missing from the report (an interrupted sweep) keeps
    // halted=false and fails its check.
    std::vector<CellRun> out(cells.size());
    for (std::size_t i = 0; i < cells.size() && i < rep.runs.size(); ++i)
        if (rep.runs[i].seed == cells[i].sweepSeed)
            out[i].result = std::move(rep.runs[i].result);
    return out;
}

CellRun
runInProcess(Context &cx, const Prepared &p, const Cell &c,
             std::uint64_t parent)
{
    CellRun out;
    Timed t(cx.tracer, "core.run", parent);
    out.result = p.sims[c.prog]->runShared(c.machine, kMaxCycles);
    out.ms = t.stop() * 1e3;
    return out;
}

/** One pass over the workload's cells, in its own execution mode. */
std::vector<CellRun>
runPass(Context &cx, Prepared &p, std::uint64_t parent)
{
    if (cx.w.isolated)
        return runSweep(cx, p, parent);
    return parallelIndex(*cx.pool, cx.w.cells.size(), [&](std::size_t i) {
        return runInProcess(cx, p, cx.w.cells[i], parent);
    });
}

/**
 * The timed section: a closed loop of whole passes until time is up.
 * In a traced run every other pass records spans, so traced and
 * untraced passes see the same host and their difference is the
 * tracing overhead.
 */
struct Section
{
    std::uint64_t passes = 0;
    std::uint64_t cells = 0;
    std::uint64_t failed = 0;
    std::vector<double> passCellsPerS;  ///< untraced passes: good cells / wall
    std::vector<double> passInstsPerS;  ///< their committed insts / wall
    std::vector<double> tracedCellsPerS; ///< the same, traced passes
    std::vector<double> cellMs;          ///< untraced in-process cells
    std::vector<double> setupS;          ///< one spare set-up per pass
    std::vector<sim::RunResult> firstPass;
    std::uint64_t firstPassFsyncs = 0;
    std::uint64_t firstPassLogBytes = 0;
    std::string firstFailure;

    /** Median over passes: one slow pass on a shared host moves it
     *  less than a total over the section would. */
    double cellsPerS() const { return median(passCellsPerS); }
};

Section
runSection(Context &cx, Prepared &p,
           const std::map<std::string, Expected> &expected, double seconds,
           bool alternate)
{
    Section s;
    const Clock::time_point deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(seconds));
    do {
        const bool traced = alternate && s.passes % 2 == 1;
        cx.tracer.setEnabled(traced);
        std::uint64_t fsyncs0 = g_fsyncs.load();
        std::uint64_t lsn0 =
            p.supervisor ? p.supervisor->journal().lastLsn() : 0;
        Timed pass(cx.tracer, "pass");
        std::vector<CellRun> runs = runPass(cx, p, pass.id());
        double pass_s = pass.stop();
        double good = 0.0, insts = 0.0;
        for (std::size_t i = 0; i < runs.size(); ++i) {
            const sim::RunResult &r = runs[i].result;
            std::string why = checkCell(cx.w.cells[i], r, expected);
            ++s.cells;
            if (!traced && !cx.w.isolated)
                s.cellMs.push_back(runs[i].ms);
            if (why.empty()) {
                good += 1.0;
                insts += static_cast<double>(r.committedInsts);
            } else {
                ++s.failed;
                if (s.firstFailure.empty())
                    s.firstFailure = cx.w.cells[i].key + ": " + why;
            }
        }
        if (traced) {
            s.tracedCellsPerS.push_back(good / pass_s);
        } else {
            s.passCellsPerS.push_back(good / pass_s);
            s.passInstsPerS.push_back(insts / pass_s);
        }
        if (s.passes++ == 0) {
            s.firstPassFsyncs = g_fsyncs.load() - fsyncs0;
            if (p.supervisor)
                s.firstPassLogBytes =
                    p.supervisor->journal().lastLsn() - lsn0;
            for (CellRun &r : runs)
                s.firstPass.push_back(std::move(r.result));
        }
        // Set-up is timed many times across the run, between passes, so
        // its median sees the same host as the cells do.
        s.setupS.push_back(spareSetUp(cx));
    } while (Clock::now() < deadline || (alternate && s.passes < 2));
    cx.tracer.setEnabled(alternate);
    return s;
}

double
ratio(double a, double b)
{
    return b != 0.0 ? a / b : 0.0;
}

/** Counter totals over one pass, summed by name across cells. */
struct PassCounts
{
    std::map<std::string, double> c;
    double cycles = 0, insts = 0, injections = 0, checks = 0;

    explicit PassCounts(const std::vector<sim::RunResult> &results)
    {
        for (const sim::RunResult &r : results) {
            cycles += static_cast<double>(r.cycles);
            insts += static_cast<double>(r.committedInsts);
            injections += static_cast<double>(r.injections.total());
            checks += static_cast<double>(r.invariantChecks);
            for (const auto &[name, v] : r.counters)
                c[name] += static_cast<double>(v);
        }
    }

    double
    get(const std::string &name) const
    {
        auto it = c.find(name);
        return it == c.end() ? 0.0 : it->second;
    }

    /** Sum of `l1d<n><suffix>` over the L1D banks. */
    double
    banks(const std::string &suffix) const
    {
        double sum = 0.0;
        for (const auto &[name, v] : c)
            if (name.rfind("l1d", 0) == 0 &&
                name.size() > suffix.size() &&
                name.compare(name.size() - suffix.size(), suffix.size(),
                             suffix) == 0)
                sum += v;
        return sum;
    }
};

struct Metric
{
    std::string name;
    double value;
    std::string unit;
    std::string samples; ///< human-readable sample count
};

/**
 * Peak resident memory: this process's high-water mark (VmHWM, which
 * starts afresh at exec, unlike RUSAGE_SELF) plus, when `workers`, the
 * largest worker's peak as the kernel reports it for reaped children.
 */
double
peakRssMb(bool workers)
{
    double kb = 0.0;
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            kb = std::strtod(line.c_str() + 6, nullptr);
    if (workers) {
        struct rusage kids{};
        ::getrusage(RUSAGE_CHILDREN, &kids);
        kb += static_cast<double>(kids.ru_maxrss);
    }
    return kb / 1024.0;
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (char ch : s) {
        if (ch == '"' || ch == '\\')
            out += '\\';
        out += ch;
    }
    return out;
}

void
printTable(const char *title, const std::vector<Metric> &ms)
{
    std::printf("\n%s\n", title);
    std::printf("  %-30s %16s  %-8s %s\n", "metric", "value", "unit",
                "samples");
    for (const Metric &m : ms)
        std::printf("  %-30s %16.6g  %-8s %s\n", m.name.c_str(), m.value,
                    m.unit.c_str(), m.samples.c_str());
}

void
printResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
            const std::vector<Metric> &ms)
{
    std::string out = std::string("{\"correct\": ") +
                      (correct ? "true" : "false") +
                      ", \"attempted\": " + std::to_string(attempted) +
                      ", \"failed\": " + std::to_string(failed) +
                      ", \"metrics\": {";
    for (std::size_t i = 0; i < ms.size(); ++i) {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.17g", ms[i].value);
        out += (i ? ", \"" : "\"") + ms[i].name + "\": {\"value\": " + buf +
               ", \"unit\": \"" + ms[i].unit + "\"}";
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
    std::fflush(stdout);
}

/** Simulated results: printed for the reader, never gated. */
void
printModelled(const Workload &w, const std::vector<sim::RunResult> &pass)
{
    PassCounts pc(pass);
    std::printf("\nmodelled (simulated, not host time): IPC %.4f "
                "(%.0f insts / %.0f cycles over one pass)\n",
                ratio(pc.insts, pc.cycles), pc.insts, pc.cycles);
    if (w.name == "paper-grid") {
        std::map<std::size_t, double> ssf; // program -> storesets IPC
        std::vector<double> logs;
        for (std::size_t i = 0; i < w.cells.size(); ++i)
            if (w.cells[i].mech == "storesets-flush")
                ssf[w.cells[i].prog] = pass[i].ipc();
        for (std::size_t i = 0; i < w.cells.size(); ++i) {
            auto it = ssf.find(w.cells[i].prog);
            if (w.cells[i].mech == "dsre" && it != ssf.end() &&
                it->second > 0.0 && pass[i].ipc() > 0.0)
                logs.push_back(std::log(pass[i].ipc() / it->second));
        }
        double gm = 0.0;
        for (double l : logs)
            gm += l;
        gm = logs.empty() ? 0.0 : std::exp(gm / logs.size());
        std::printf("modelled DSRE over storesets-flush: %.4fx IPC "
                    "geomean over %zu kernel inputs\n",
                    gm, logs.size());
    }
    std::printf("model accuracy: unvalidated. There is no hardware "
                "reference, and PAPER.md carries only the abstract's "
                "17%% / 82%% claims, so no error figure is given.\n");
}

/**
 * Output check of the log layer: the journal must read back with one
 * record per cell the supervisor ran.
 */
bool
journalHolds(const super::Supervisor &sup, std::uint64_t cells,
             std::size_t *records)
{
    std::vector<super::JournalRecord> recs;
    std::string build_line, err;
    const std::string &path = sup.journal().path();
    bool ok = super::Journal::load(path, &recs, &build_line, &err);
    *records = recs.size();
    if (ok && recs.size() == cells)
        return true;
    std::fprintf(stderr,
                 "perfbench: journal %s holds %zu records, expected %llu %s\n",
                 path.c_str(), recs.size(),
                 static_cast<unsigned long long>(cells), err.c_str());
    return false;
}

bool
sanitizedBuild()
{
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    return true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
    return true;
#endif
#endif
    return buildInfo().sanitizer != "OFF";
}

} // namespace

int
main(int argc, char **argv)
{
    // The Supervisor re-executes this binary as its cell worker.
    if (argc >= 2 && std::strcmp(argv[1], "--worker-cell") == 0)
        return super::workerCellMain(std::cin, std::cout);

    Args args = parseArgs(argc, argv);
    if (sanitizedBuild()) {
        std::fprintf(stderr, "perfbench: refusing to report numbers from a "
                             "sanitizer build (%s)\n",
                     buildInfoLine().c_str());
        return 2;
    }
    Workload w;
    if (!makeWorkload(args.workload, args.seed, &w))
        usage(("unknown workload " + args.workload).c_str());

    std::map<std::string, Expected> expected;
    if (args.recordPath.empty()) {
        std::string err;
        if (!loadExpected(args.expectPath, w.name, args.seed, &expected,
                          &err)) {
            std::fprintf(stderr, "perfbench: %s\n", err.c_str());
            return 2;
        }
    }

    unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    unsigned threads = args.threads ? args.threads : std::min(kMaxThreads, hw);
    const std::uint64_t run_id =
        splitmix(static_cast<std::uint64_t>(
                     Clock::now().time_since_epoch().count()) ^
                 static_cast<std::uint64_t>(::getpid()));
    char run_hex[17];
    std::snprintf(run_hex, sizeof(run_hex), "%016llx",
                  static_cast<unsigned long long>(run_id));

    std::printf("perfbench: workload %s, seed %llu, %zu cells per pass, "
                "%.1f s, trace %d\n",
                w.name.c_str(), static_cast<unsigned long long>(args.seed),
                w.cells.size(), args.seconds, args.trace ? 1 : 0);
    std::string provenance =
        std::string("{\"run\": \"") + run_hex + "\", \"workload\": \"" +
        w.name + "\", \"seed\": " + std::to_string(args.seed) +
        ", \"threads\": " + std::to_string(threads) +
        ", \"host\": " + hostInfoJson() + ", \"build\": \"" +
        jsonEscape(buildInfoLine()) + "\", \"source_sha256\": \"" +
        jsonEscape(args.sourceHash) + "\"}";
    std::printf("provenance: %s\n", provenance.c_str());
    std::printf("caches: every cell starts with empty modelled caches "
                "(a fresh Processor per cell)\n");
    if (args.recordPath.empty())
        std::printf("output check: %s\n",
                    expected.empty()
                        ? "no recorded stats for this seed; checking the "
                          "reference match only"
                        : "recorded stats for this seed, compared exactly");
    std::fflush(stdout);

    namespace fs = std::filesystem;
    std::string journal_dir = args.workDir + "/journals-" + run_hex;
    auto remove_journals = [&] {
        std::error_code ec;
        fs::remove_all(journal_dir, ec);
    };
    if (w.isolated) {
        std::error_code ec;
        fs::create_directories(journal_dir, ec);
        if (ec) {
            std::fprintf(stderr, "perfbench: cannot create %s\n",
                         journal_dir.c_str());
            return 2;
        }
    }

    Tracer tracer(args.trace, run_id);
    std::unique_ptr<ThreadPool> pool;
    if (!w.isolated)
        pool = std::make_unique<ThreadPool>(threads);
    Context cx{w, threads, tracer, pool.get(), journal_dir};

    Prepared prep;
    std::vector<double> setup_s = {timedSetUp(cx, &prep)};

    if (!args.recordPath.empty()) {
        std::vector<CellRun> runs = runPass(cx, prep, 0);
        prep = Prepared{};
        remove_journals();
        std::string lines;
        for (std::size_t i = 0; i < runs.size(); ++i) {
            std::string why = checkCell(w.cells[i], runs[i].result, {});
            if (!why.empty()) {
                std::fprintf(stderr, "perfbench: not recording: %s: %s\n",
                             w.cells[i].key.c_str(), why.c_str());
                return 1;
            }
            lines += expectedLine(w.name, args.seed, w.cells[i].key,
                                  statsOf(runs[i].result)) +
                     "\n";
        }
        std::ofstream out(args.recordPath, std::ios::app);
        out << lines;
        out.flush();
        if (!out) {
            std::fprintf(stderr, "perfbench: cannot write %s\n",
                         args.recordPath.c_str());
            return 1;
        }
        std::printf("recorded %zu cells to %s\n", runs.size(),
                    args.recordPath.c_str());
        return 0;
    }

    // One untimed pass first, so allocator growth and cold host caches
    // are not charged to the first timed cells. Its cells are checked.
    std::uint64_t attempted = w.cells.size();
    std::uint64_t failed = 0;
    std::string first_failure;
    {
        tracer.setEnabled(false);
        std::vector<CellRun> warm = runPass(cx, prep, 0);
        for (std::size_t i = 0; i < warm.size(); ++i) {
            std::string why = checkCell(w.cells[i], warm[i].result, expected);
            if (!why.empty() && failed++ == 0)
                first_failure = w.cells[i].key + " (warm-up): " + why;
        }
    }

    // End-to-end figures come from the untraced passes only.
    Section main_sec =
        runSection(cx, prep, expected, args.seconds, args.trace);
    const std::uint64_t untraced_passes = main_sec.passCellsPerS.size();
    const std::uint64_t traced_passes = main_sec.tracedCellsPerS.size();

    setup_s.insert(setup_s.end(), main_sec.setupS.begin(),
                   main_sec.setupS.end());
    attempted += main_sec.cells;
    failed += main_sec.failed;
    if (first_failure.empty())
        first_failure = main_sec.firstFailure;
    bool outputs_ok = true;

    std::vector<Metric> e2e = {
        {"cells_per_s", main_sec.cellsPerS(), "1/s",
         std::to_string(untraced_passes) + " passes (median)"},
        {"sim_minsts_per_s", median(main_sec.passInstsPerS) / 1e6, "Minst/s",
         std::to_string(untraced_passes) + " passes (median)"},
        {"setup_s", median(setup_s), "s",
         std::to_string(setup_s.size()) + " set-ups (median)"},
        {"peak_rss_mb", peakRssMb(w.isolated), "MB",
         w.isolated ? "1 (this process + largest worker)" : "1"},
    };

    std::vector<Metric> layers;
    if (args.trace) {
        // Isolated cells run in workers; run the same cells once in
        // process, as wide, so the isolation overhead and the core's own
        // rates are known.
        double inproc_ms_per_cell = 0.0;
        std::uint64_t core_passes = traced_passes;
        if (w.isolated) {
            ThreadPool cmp_pool(threads);
            Timed cmp(tracer, "isolation.compare");
            std::vector<CellRun> runs =
                parallelIndex(cmp_pool, w.cells.size(), [&](std::size_t i) {
                    return runInProcess(cx, prep, w.cells[i], cmp.id());
                });
            inproc_ms_per_cell =
                cmp.stop() * 1e3 / static_cast<double>(w.cells.size());
            for (std::size_t i = 0; i < runs.size(); ++i) {
                ++attempted;
                std::string why =
                    checkCell(w.cells[i], runs[i].result, expected);
                if (!why.empty() && failed++ == 0 && first_failure.empty())
                    first_failure = w.cells[i].key + " (in-process): " + why;
            }
            core_passes = 1;
        }
        {
            Timed ser(tracer, "triage");
            std::size_t bytes = 0;
            for (const sim::RunResult &r : main_sec.firstPass) {
                Timed t(tracer, "triage.result_json", ser.id());
                bytes += triage::resultToJson(r).dumpCompact().size();
            }
            std::printf("result JSON: %zu bytes for one pass\n", bytes);
        }

        const auto tot = tracer.totals();
        auto span = [&](const char *name) {
            auto it = tot.find(name);
            return it == tot.end() ? perfbench::SpanTotals{} : it->second;
        };
        auto span_ns = [&](const char *name) { return span(name).totalNs; };
        auto span_n = [&](const char *name) {
            return static_cast<double>(span(name).count);
        };
        PassCounts pc(main_sec.firstPass);
        double reps_d = span_n("setup");
        double core_ns = span_ns("core.run");
        double cp = static_cast<double>(core_passes);
        double super_ms =
            ratio(span_ns("super.sweep"),
                  span_n("super.sweep") * static_cast<double>(w.cells.size())) /
            1e6;

        double log_records = 0.0;
        if (w.isolated) {
            std::uint64_t passes = 1 + main_sec.passes;
            std::size_t n = 0;
            outputs_ok = journalHolds(*prep.supervisor,
                                  passes * w.cells.size(), &n);
            log_records =
                static_cast<double>(n) / static_cast<double>(passes);
        }

        layers = {
            {"workloads.build_ms", span_ns("workloads.build") / 1e6 / reps_d,
             "ms", "per set-up"},
            {"sim.prepare_ms", span_ns("sim.prepare") / 1e6 / reps_d, "ms",
             "per set-up"},
            {"compiler.ref_insts", static_cast<double>(prep.refInsts),
             "count", "per set-up"},
            {"sim.prepare_ns_per_ref_inst",
             ratio(span_ns("sim.prepare"),
                   static_cast<double>(prep.refInsts) * reps_d),
             "ns", ""},
            {"core.run_ms", core_ns / 1e6 / cp, "ms", "per pass"},
            {"core.ns_per_sim_cycle", ratio(core_ns, pc.cycles * cp), "ns",
             ""},
            {"core.ns_per_commit_inst", ratio(core_ns, pc.insts * cp), "ns",
             ""},
            {"core.sim_cycles", pc.cycles, "count", "per pass"},
            {"core.committed_insts", pc.insts, "count", "per pass"},
            {"core.alu_issues", pc.get("core.alu_issues"), "count",
             "per pass"},
            {"core.alu_reexecs", pc.get("core.alu_reexecs"), "count",
             "per pass"},
            {"core.useful_issue_frac",
             ratio(pc.insts, pc.get("core.alu_issues")), "frac", ""},
            {"core.fetched_blocks", pc.get("core.fetched_blocks"), "count",
             "per pass"},
            {"core.block_commit_frac",
             ratio(pc.get("core.committed_blocks"),
                   pc.get("core.fetched_blocks")),
             "frac", ""},
            {"core.ctrl_flushes", pc.get("core.ctrl_flushes"), "count",
             "per pass"},
            {"core.viol_flushes", pc.get("core.viol_flushes"), "count",
             "per pass"},
            {"core.upgrades", pc.get("core.upgrades"), "count", "per pass"},
            {"regs.forward_reads", pc.get("regs.forward_reads"), "count",
             "per pass"},
            {"lsq.loads", pc.get("lsq.loads"), "count", "per pass"},
            {"lsq.stores", pc.get("lsq.stores"), "count", "per pass"},
            {"lsq.violations", pc.get("lsq.violations"), "count",
             "per pass"},
            {"lsq.resends", pc.get("lsq.resends"), "count", "per pass"},
            {"lsq.forwards", pc.get("lsq.forwards"), "count", "per pass"},
            {"lsq.deferrals", pc.get("lsq.deferrals"), "count", "per pass"},
            {"lsq.violations_per_kload",
             1000.0 * ratio(pc.get("lsq.violations"), pc.get("lsq.loads")),
             "1/kload", ""},
            {"net.messages", pc.get("net.messages"), "count", "per pass"},
            {"net.hops", pc.get("net.hops"), "count", "per pass"},
            {"net.queue_cycles", pc.get("net.queue_cycles"), "count",
             "per pass"},
            {"gcn.messages", pc.get("gcn.messages"), "count", "per pass"},
            {"gcn.queue_cycles", pc.get("gcn.queue_cycles"), "count",
             "per pass"},
            {"net.ns_per_message", ratio(core_ns, pc.get("net.messages") * cp),
             "ns", ""},
            {"mem.l1d_hits", pc.banks(".hits"), "count", "per pass"},
            {"mem.l1d_misses", pc.banks(".misses"), "count", "per pass"},
            {"mem.l1d_mshr_stalls", pc.banks(".mshr_stalls"), "count",
             "per pass"},
            {"mem.l2_misses", pc.get("l2.misses"), "count", "per pass"},
            {"mem.dram_reads", pc.get("dram.reads"), "count", "per pass"},
            {"nbp.lookups", pc.get("nbp.lookups"), "count", "per pass"},
            {"nbp.accuracy",
             ratio(pc.get("nbp.correct"),
                   pc.get("nbp.correct") + pc.get("nbp.wrong")),
             "frac", ""},
            {"storesets.waits", pc.get("storesets.waits"), "count",
             "per pass"},
            {"pool.busy_frac",
             w.isolated ? 0.0 : ratio(core_ns, threads * span_ns("pass")),
             "frac", std::to_string(traced_passes) + " traced passes"},
            {"pool.cell_ms_p50", percentile(main_sec.cellMs, 50), "ms",
             std::to_string(main_sec.cellMs.size()) + " untraced cells"},
            {"pool.cell_ms_p90", percentile(main_sec.cellMs, 90), "ms",
             std::to_string(main_sec.cellMs.size()) + " untraced cells, " +
                 std::to_string(main_sec.cellMs.size() / 10) +
                 " beyond p90"},
            {"chaos.injections", pc.injections, "count", "per pass"},
            {"chaos.invariant_checks", pc.checks, "count", "per pass"},
            {"super.ms_per_cell", super_ms, "ms",
             std::to_string(static_cast<std::uint64_t>(span_n("super.sweep"))) +
                 " traced sweeps (wall per cell)"},
            {"super.isolation_overhead_frac",
             w.isolated ? ratio(super_ms, inproc_ms_per_cell) - 1.0 : 0.0,
             "frac", ""},
            {"log.records", log_records, "count", "per pass"},
            {"log.fsyncs", static_cast<double>(main_sec.firstPassFsyncs),
             "count", "per pass"},
            {"log.bytes", static_cast<double>(main_sec.firstPassLogBytes),
             "bytes", "per pass"},
            {"triage.result_json_us",
             ratio(span_ns("triage.result_json"), span_n("triage.result_json")) /
                 1e3,
             "us", std::to_string(static_cast<std::uint64_t>(
                       span_n("triage.result_json"))) +
                       " results"},
            {"trace.overhead_frac",
             ratio(main_sec.cellsPerS(), median(main_sec.tracedCellsPerS)) -
                 1.0,
             "frac",
             std::to_string(untraced_passes) + " untraced vs " +
                 std::to_string(traced_passes) + " traced passes"},
        };

        std::printf("\ntraced run %s: spans by layer (self = span minus "
                    "the part its children cover)\n",
                    run_hex);
        std::printf("  %-22s %8s %12s %12s\n", "span", "count", "total ms",
                    "self ms");
        for (const auto &[name, t] : tot)
            std::printf("  %-22s %8llu %12.3f %12.3f\n", name.c_str(),
                        static_cast<unsigned long long>(t.count),
                        t.totalNs / 1e6, t.selfNs / 1e6);
        std::string trace_path = args.workDir + "/trace-" + w.name + "-" +
                                 std::to_string(args.seed) + ".jsonl";
        if (!tracer.write(trace_path, "{\"provenance\": " + provenance + "}")) {
            std::fprintf(stderr, "perfbench: cannot write %s\n",
                         trace_path.c_str());
            outputs_ok = false;
        } else {
            std::printf("spans written to %s\n", trace_path.c_str());
        }
    } else if (w.isolated) {
        std::size_t n = 0;
        outputs_ok = journalHolds(*prep.supervisor,
                              (1 + main_sec.passes) * w.cells.size(), &n);
    }

    printModelled(w, main_sec.firstPass);
    // failed_cells_frac is 0 on every good run, so it is shown here and
    // carried in the result line as failed / attempted, not as a metric.
    std::vector<Metric> shown = e2e;
    shown.push_back({"failed_cells_frac",
                     ratio(static_cast<double>(failed),
                           static_cast<double>(attempted)),
                     "frac", std::to_string(attempted) + " cells"});
    printTable("end to end (untraced passes)", shown);
    if (!main_sec.cellMs.empty())
        std::printf("cell latency (not gated): p50 %.3f ms, p90 %.3f ms over "
                    "%zu untraced cells, %zu beyond p90\n",
                    percentile(main_sec.cellMs, 50),
                    percentile(main_sec.cellMs, 90), main_sec.cellMs.size(),
                    main_sec.cellMs.size() / 10);
    if (args.trace)
        printTable("per layer (traced run)", layers);
    if (!first_failure.empty())
        std::printf("\nFAILED: %llu of %llu cells; first: %s\n",
                    static_cast<unsigned long long>(failed),
                    static_cast<unsigned long long>(attempted),
                    first_failure.c_str());

    prep = Prepared{};
    remove_journals();

    bool correct = failed == 0 && outputs_ok;
    printResult(correct, attempted, failed, args.trace ? layers : e2e);
    return correct ? 0 : 1;
}
