/**
 * @file
 * In-memory span recorder for the benchmark's traced run. A span
 * names one call the benchmark makes into a simulator layer, with its
 * start, end, the span that caused it and the run it belongs to. Spans
 * stay in memory while the run measures and are written out once, at
 * the end. With tracing off, record() is never called, so the
 * untraced run pays nothing but the branch.
 */

#ifndef PERFBENCH_TRACE_HH
#define PERFBENCH_TRACE_HH

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Span
{
    std::uint64_t id = 0;
    std::uint64_t parent = 0; ///< 0 = root
    const char *name = "";
    Clock::time_point start;
    Clock::time_point end;
    unsigned thread = 0;
};

/** Per-name totals: how often, how long, and how long net of children. */
struct SpanTotals
{
    std::uint64_t count = 0;
    double totalNs = 0.0;
    double selfNs = 0.0;
};

class Tracer
{
  public:
    Tracer(bool enabled, std::uint64_t run_id)
        : _enabled(enabled), _runId(run_id), _epoch(Clock::now())
    {
    }

    bool enabled() const { return _enabled.load(std::memory_order_relaxed); }

    /** Switch recording on or off between timed sections. */
    void setEnabled(bool on) { _enabled.store(on, std::memory_order_relaxed); }

    /** A fresh span id (ids are never reused within a run). */
    std::uint64_t newId() { return _nextId.fetch_add(1); }

    /** Store a finished span; a no-op with tracing off. */
    void
    record(std::uint64_t id, std::uint64_t parent, const char *name,
           Clock::time_point start, Clock::time_point end)
    {
        if (!enabled())
            return;
        Span s{id, parent, name, start, end, threadIndex()};
        std::lock_guard<std::mutex> lock(_mutex);
        _spans.push_back(s);
    }

    /**
     * Totals per span name. Self time is a span's duration minus the
     * part of it that its children cover; children that overlap
     * (cells on several pool threads) are merged first.
     */
    std::map<std::string, SpanTotals>
    totals() const
    {
        std::lock_guard<std::mutex> lock(_mutex);
        std::map<std::uint64_t, std::vector<const Span *>> children;
        for (const Span &s : _spans)
            if (s.parent != 0)
                children[s.parent].push_back(&s);
        std::map<std::string, SpanTotals> out;
        for (const Span &s : _spans) {
            double dur = ns(s.end - s.start);
            double covered = 0.0;
            auto it = children.find(s.id);
            if (it != children.end()) {
                std::vector<std::pair<Clock::time_point,
                                      Clock::time_point>> iv;
                for (const Span *c : it->second)
                    iv.emplace_back(std::max(c->start, s.start),
                                    std::min(c->end, s.end));
                std::sort(iv.begin(), iv.end());
                Clock::time_point lo{}, hi{};
                bool open = false;
                for (const auto &[a, b] : iv) {
                    if (b <= a)
                        continue;
                    if (open && a <= hi) {
                        hi = std::max(hi, b);
                        continue;
                    }
                    if (open)
                        covered += ns(hi - lo);
                    lo = a;
                    hi = b;
                    open = true;
                }
                if (open)
                    covered += ns(hi - lo);
            }
            SpanTotals &t = out[s.name];
            ++t.count;
            t.totalNs += dur;
            t.selfNs += dur - covered;
        }
        return out;
    }

    /** Write every span as one JSON line; false on an I/O error. */
    bool
    write(const std::string &path, const std::string &header) const
    {
        std::FILE *f = std::fopen(path.c_str(), "w");
        if (!f)
            return false;
        std::fprintf(f, "%s\n", header.c_str());
        std::lock_guard<std::mutex> lock(_mutex);
        for (const Span &s : _spans)
            std::fprintf(f,
                         "{\"run\": \"%016llx\", \"id\": %llu, "
                         "\"parent\": %llu, \"name\": \"%s\", "
                         "\"start_ns\": %.0f, \"dur_ns\": %.0f, "
                         "\"thread\": %u}\n",
                         static_cast<unsigned long long>(_runId),
                         static_cast<unsigned long long>(s.id),
                         static_cast<unsigned long long>(s.parent),
                         s.name, ns(s.start - _epoch),
                         ns(s.end - s.start), s.thread);
        bool ok = std::ferror(f) == 0;
        return std::fclose(f) == 0 && ok;
    }

  private:
    static double
    ns(Clock::duration d)
    {
        return std::chrono::duration<double, std::nano>(d).count();
    }

    static unsigned
    threadIndex()
    {
        static std::atomic<unsigned> next{0};
        thread_local unsigned idx = next.fetch_add(1);
        return idx;
    }

    std::atomic<bool> _enabled;
    std::uint64_t _runId;
    Clock::time_point _epoch;
    std::atomic<std::uint64_t> _nextId{1};
    mutable std::mutex _mutex;
    std::vector<Span> _spans;
};

/**
 * Times one call into a layer: always measures (the untraced run needs
 * the same durations for its latency figures) and records a span only
 * when the tracer is on.
 */
class Timed
{
  public:
    Timed(Tracer &tracer, const char *name, std::uint64_t parent = 0)
        : _tracer(tracer), _name(name), _parent(parent),
          _id(tracer.enabled() ? tracer.newId() : 0),
          _start(Clock::now())
    {
    }

    Timed(const Timed &) = delete;
    Timed &operator=(const Timed &) = delete;

    ~Timed()
    {
        if (!_done)
            stop();
    }

    /** The span id children should name as their parent. */
    std::uint64_t id() const { return _id; }

    /** End the span; returns its duration in seconds. */
    double
    stop()
    {
        Clock::time_point end = Clock::now();
        if (!_done)
            _tracer.record(_id, _parent, _name, _start, end);
        _done = true;
        return std::chrono::duration<double>(end - _start).count();
    }

  private:
    Tracer &_tracer;
    const char *_name;
    std::uint64_t _parent;
    std::uint64_t _id;
    Clock::time_point _start;
    bool _done = false;
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_HH
