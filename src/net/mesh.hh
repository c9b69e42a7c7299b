/**
 * @file
 * The operand micronetwork: a 2-D mesh carrying single-flit operand
 * messages between execution nodes, the register-file row and the
 * LSQ/D-cache column. Timing model: X-Y routing, one message per
 * link per cycle (greedy reservation in send order, which is
 * deterministic because the core ticks components in a fixed order),
 * `hopLatency` cycles per traversed link, zero-cost local bypass
 * when source == destination.
 *
 * In-flight traffic sits in a calendar wheel: a power-of-two ring of
 * per-cycle FIFO lists covering arrivals in [base, base + kWheelSpan),
 * threaded by index through one slab of events whose freed slots are
 * reused, plus an occupancy bitmap to find the next busy cycle. A
 * small (arrival, seq) min-heap holds the rest: arrivals beyond the
 * span, which move into the wheel as its base advances, and arrivals
 * before the base, which are due at the next deliver(). Send and
 * delivery are O(1) for in-span traffic; see DESIGN.md.
 *
 * Mesh is a class template over the payload so the network layer
 * stays independent of core message formats.
 */

#ifndef EDGE_NET_MESH_HH
#define EDGE_NET_MESH_HH

#include <algorithm>
#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "chaos/chaos.hh"
#include "common/logging.hh"
#include "common/stats.hh"
#include "net/route.hh"

namespace edge::net {

struct MeshParams
{
    MeshGeom geom;
    unsigned hopLatency = 1; ///< cycles per link traversal
    std::string statPrefix = "net"; ///< counter namespace
    /**
     * Optional fault injector (not owned): adds extra hop delay to
     * some messages and delivers duplicates of others. Safe for any
     * payload whose consumers drop stale waves — which is exactly
     * the protocol property the chaos harness exercises.
     */
    chaos::ChaosEngine *chaos = nullptr;
};

template <typename Payload>
class Mesh
{
  public:
    /** Cycles the wheel covers; later arrivals wait in the heap. */
    static constexpr Cycle kWheelSpan = 1024;

    Mesh(const MeshParams &params, StatSet &stats)
        : _p(params),
          _routers(_p.geom.rows * _p.geom.cols),
          _linkFree(numLinks(_p.geom), 0),
          _sent(stats.counter(_p.statPrefix + ".messages",
                              "messages sent")),
          _delivered(stats.counter(_p.statPrefix + ".delivered",
                                   "messages delivered")),
          _hops(stats.counter(_p.statPrefix + ".hops",
                              "total link traversals")),
          _queued(stats.counter(_p.statPrefix + ".queue_cycles",
                                "cycles spent waiting for links"))
    {
        // Every X-Y route, computed once: route (src, dst) is
        // _routeLinks[_routeStart[i] .. _routeStart[i + 1]) with
        // i = router(src) * routers + router(dst).
        _routeStart.reserve(_routers * _routers + 1);
        for (unsigned s = 0; s < _routers; ++s) {
            for (unsigned d = 0; d < _routers; ++d) {
                _routeStart.push_back(
                    static_cast<std::uint32_t>(_routeLinks.size()));
                auto path = routeXY(_p.geom, coordOf(s), coordOf(d));
                _routeLinks.insert(_routeLinks.end(), path.begin(),
                                   path.end());
            }
        }
        _routeStart.push_back(
            static_cast<std::uint32_t>(_routeLinks.size()));
        _head.fill(kNil);
        _tail.fill(kNil);
        _occupied.fill(0);
    }

    /**
     * Inject a message at cycle `now`; it becomes visible to the
     * destination's deliver phase at the returned cycle.
     */
    Cycle
    send(Cycle now, Coord src, Coord dst, Payload payload)
    {
        ++_sent;
        Cycle t = now;
        if (!(src == dst)) {
            panic_if(src.row >= _p.geom.rows ||
                         src.col >= _p.geom.cols ||
                         dst.row >= _p.geom.rows ||
                         dst.col >= _p.geom.cols,
                     "coordinate outside the %ux%u mesh", _p.geom.rows,
                     _p.geom.cols);
            std::size_t r = routerOf(src) * _routers + routerOf(dst);
            for (std::uint32_t i = _routeStart[r];
                 i < _routeStart[r + 1]; ++i) {
                LinkId link = _routeLinks[i];
                Cycle start = std::max(t, _linkFree[link]);
                _queued += start - t;
                _linkFree[link] = start + 1;
                t = start + _p.hopLatency;
                ++_hops;
            }
        }
        if (_p.chaos) {
            // Chaos: hold this message on a congested virtual channel
            // for a few extra cycles, and sometimes deliver a second,
            // bit-identical copy later. Consumers drop the copy as a
            // stale wave — duplicate delivery is idempotent.
            t += _p.chaos->hopJitter();
            if (_p.chaos->duplicate())
                push(t + _p.chaos->duplicateSkew(), dst, Payload(payload));
        }
        push(t, dst, std::move(payload));
        return t;
    }

    /**
     * Deliver every message that has arrived by cycle `now`.
     * @param fn invoked as fn(Coord dst, Payload &&msg) in a
     *        deterministic (arrival time, send order) order; a
     *        message it sends that is due by `now` is delivered in
     *        this same call
     */
    template <typename Fn>
    void
    deliver(Cycle now, Fn &&fn)
    {
        for (;;) {
            std::uint32_t idx;
            if (!_heap.empty() && _heap.front().arrival < _base) {
                // Sent with an arrival before the base: earlier than
                // anything in the wheel.
                if (_heap.front().arrival > now)
                    break;
                idx = popHeap();
            } else if (_inWheel == 0) {
                if (_heap.empty() || _heap.front().arrival > now)
                    break;
                advance(_heap.front().arrival);
                continue;
            } else {
                Cycle c = nextOccupied();
                if (c > now)
                    break;
                advance(c);
                idx = popBucket(c);
            }
            // Move the payload out before fn runs: a send from inside
            // fn may grow (and so move) the slab.
            Coord dst = _slab[idx].dst;
            Payload payload = std::move(_slab[idx].payload);
            _slab[idx].next = _free;
            _free = idx;
            --_inFlight;
            ++_delivered;
            fn(dst, std::move(payload));
        }
        if (now > _base)
            advance(now);
    }

    bool empty() const { return _inFlight == 0; }
    std::size_t inFlight() const { return _inFlight; }

    /**
     * Arrival cycle of the earliest in-flight message, or ~Cycle{0}
     * when the network is empty. The event-driven run loop uses this
     * to jump straight to the next delivery instead of polling.
     */
    Cycle
    nextArrival() const
    {
        if (!_heap.empty() && _heap.front().arrival < _base)
            return _heap.front().arrival;
        if (_inWheel != 0)
            return nextOccupied();
        return _heap.empty() ? ~Cycle{0} : _heap.front().arrival;
    }

    /** Drop all in-flight traffic and link state (machine reset). */
    void
    reset()
    {
        _slab.clear();
        _free = kNil;
        _heap.clear();
        _head.fill(kNil);
        _tail.fill(kNil);
        _occupied.fill(0);
        _inWheel = 0;
        _inFlight = 0;
        _base = 0;
        std::fill(_linkFree.begin(), _linkFree.end(), 0);
    }

    const MeshParams &params() const { return _p; }

  private:
    static constexpr std::uint32_t kNil = ~std::uint32_t{0};
    static constexpr Cycle kMask = kWheelSpan - 1;
    static constexpr unsigned kWords = kWheelSpan / 64;
    static_assert((kWheelSpan & kMask) == 0 && kWords > 0,
                  "the wheel span must be a power of two >= 64");

    /** One in-flight message; `next` threads a bucket or free list. */
    struct Event
    {
        Payload payload;
        Coord dst;
        std::uint32_t next = kNil;
    };

    /** A heap entry: the delivery key of the slab event `idx`. */
    struct Pending
    {
        Cycle arrival;
        std::uint64_t seq; ///< tie-break for deterministic delivery
        std::uint32_t idx;
    };

    /** Heap predicate: a sorts after b (min-heap on arrival, seq). */
    static bool
    laterThan(const Pending &a, const Pending &b)
    {
        return a.arrival != b.arrival ? a.arrival > b.arrival
                                      : a.seq > b.seq;
    }

    std::size_t
    routerOf(Coord c) const
    {
        return static_cast<std::size_t>(c.row) * _p.geom.cols + c.col;
    }

    Coord
    coordOf(unsigned router) const
    {
        return {static_cast<std::uint16_t>(router / _p.geom.cols),
                static_cast<std::uint16_t>(router % _p.geom.cols)};
    }

    void
    push(Cycle arrival, Coord dst, Payload &&payload)
    {
        std::uint32_t idx = _free;
        if (idx != kNil) {
            _free = _slab[idx].next;
            _slab[idx].payload = std::move(payload);
            _slab[idx].dst = dst;
        } else {
            idx = static_cast<std::uint32_t>(_slab.size());
            _slab.push_back(Event{std::move(payload), dst});
        }
        ++_inFlight;
        if (arrival >= _base && arrival - _base < kWheelSpan) {
            append(arrival, idx);
        } else {
            _heap.push_back(Pending{arrival, _nextSeq, idx});
            std::push_heap(_heap.begin(), _heap.end(), laterThan);
        }
        ++_nextSeq;
    }

    /** Link slab event `idx` at the tail of its arrival's bucket. */
    void
    append(Cycle arrival, std::uint32_t idx)
    {
        auto b = static_cast<unsigned>(arrival & kMask);
        _slab[idx].next = kNil;
        if (_tail[b] == kNil) {
            _head[b] = idx;
            _occupied[b >> 6] |= std::uint64_t{1} << (b & 63);
        } else {
            _slab[_tail[b]].next = idx;
        }
        _tail[b] = idx;
        ++_inWheel;
    }

    std::uint32_t
    popBucket(Cycle c)
    {
        auto b = static_cast<unsigned>(c & kMask);
        std::uint32_t idx = _head[b];
        _head[b] = _slab[idx].next;
        if (_head[b] == kNil) {
            _tail[b] = kNil;
            _occupied[b >> 6] &= ~(std::uint64_t{1} << (b & 63));
        }
        --_inWheel;
        return idx;
    }

    std::uint32_t
    popHeap()
    {
        std::pop_heap(_heap.begin(), _heap.end(), laterThan);
        std::uint32_t idx = _heap.back().idx;
        _heap.pop_back();
        return idx;
    }

    /**
     * Move the base to `cycle` (no wheel event may be earlier) and
     * pull every heap event now inside the span into the wheel. The
     * heap yields them in (arrival, seq) order, and no send can have
     * reached their buckets first, so each bucket stays in send order.
     */
    void
    advance(Cycle cycle)
    {
        _base = cycle;
        while (!_heap.empty() &&
               _heap.front().arrival - _base < kWheelSpan) {
            Cycle arrival = _heap.front().arrival;
            append(arrival, popHeap());
        }
    }

    /** Earliest occupied cycle of a non-empty wheel. */
    Cycle
    nextOccupied() const
    {
        auto start = static_cast<unsigned>(_base & kMask);
        unsigned w = start >> 6;
        std::uint64_t bits =
            _occupied[w] & (~std::uint64_t{0} << (start & 63));
        while (!bits) {
            w = (w + 1) % kWords;
            bits = _occupied[w];
        }
        unsigned b =
            w * 64 + static_cast<unsigned>(__builtin_ctzll(bits));
        return _base + ((b - start) & kMask);
    }

    MeshParams _p;
    unsigned _routers;
    std::vector<Cycle> _linkFree;
    std::vector<std::uint32_t> _routeStart; ///< see the constructor
    std::vector<LinkId> _routeLinks;

    std::vector<Event> _slab;   ///< every in-flight message
    std::uint32_t _free = kNil; ///< head of the freed-slot list
    std::array<std::uint32_t, kWheelSpan> _head; ///< per-cycle FIFOs
    std::array<std::uint32_t, kWheelSpan> _tail;
    std::array<std::uint64_t, kWords> _occupied; ///< non-empty buckets
    std::vector<Pending> _heap; ///< off-wheel arrivals, min-heap
    Cycle _base = 0;            ///< first cycle the wheel covers
    std::size_t _inWheel = 0;
    std::size_t _inFlight = 0;
    std::uint64_t _nextSeq = 0;

    Counter &_sent;
    Counter &_delivered;
    Counter &_hops;
    Counter &_queued;
};

} // namespace edge::net

#endif // EDGE_NET_MESH_HH
