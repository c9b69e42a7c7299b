/**
 * @file
 * The unit of supervised execution: one (program, config, budget)
 * cell, serializable as the worker-protocol request. A supervisor
 * sends a CellSpec as one JSON document on the child's stdin; the
 * child runs it and answers with a triage::resultToJson document on
 * stdout. The cell's identity — a stable 64-bit hash of program
 * content, fully-resolved config (seed included), and cycle budget —
 * keys the campaign journal, so `--resume` can recognise a completed
 * cell across process lifetimes and host reboots.
 */

#ifndef EDGE_SUPER_CELL_HH
#define EDGE_SUPER_CELL_HH

#include <cstdint>
#include <string>

#include "triage/repro.hh"

namespace edge::super {

/** One supervised run: a program under one resolved config. */
struct CellSpec
{
    /** Program identity — a workload kernel by name, or an embedded
     *  fuzz program (see triage::ProgramRef). */
    triage::ProgramRef program;
    /**
     * Content hash of the built program. Campaign wrappers that run
     * many cells over one program compute it once; 0 means "compute
     * from `program` on demand".
     */
    std::uint64_t programHash = 0;
    /** Fully-resolved config; the run seed lives in config.rngSeed. */
    core::MachineConfig config;
    Cycle maxCycles = 500'000'000;
    /**
     * Test-only crash hook. When nonempty the worker misbehaves on
     * purpose instead of running the cell: "segv" dereferences null,
     * "abort" raises SIGABRT, "kill" raises SIGKILL, "hang" sleeps
     * forever, "exit3" exits with status 3, "garbage" prints a
     * non-JSON line and exits 0, "linger" closes stdout and exits 0
     * (with no result) 10 ms later. This is how the
     * signal-classification tests produce real dead children without
     * shipping a genuinely crashy workload.
     */
    std::string testCrash;
};

/**
 * Stable identity of a cell: FNV-1a over the program content hash,
 * the canonical JSON of the resolved config, and the cycle budget.
 * Builds the program to hash it when `programHash` is 0.
 */
std::uint64_t cellHash(const CellSpec &cell);

/** Serialize a cell as the worker-protocol request document. */
triage::JsonValue cellToJson(const CellSpec &cell);

/** Parse a request; false (with *err set) on malformed input. */
bool cellFromJson(const triage::JsonValue &root, CellSpec *cell,
                  std::string *err);

} // namespace edge::super

#endif // EDGE_SUPER_CELL_HH
