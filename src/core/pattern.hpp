// Periodic patterns (§3 of the paper) and their exact verification.
//
// A pattern of period T assigns every operation (stage forward/backward,
// boundary communications) a resource, a start time t ∈ [0,T) and an index
// shift h: in the k-th period the operation starts at kT + t and processes
// mini-batch k − h. The *virtual time* z = t + h·T is the time at which the
// operation processes batch 0; chain dependencies are plain precedences in
// z, which is how all schedulers in this library reason about patterns.
//
// `validate_pattern` checks, exactly:
//   1. structure — one F/B per stage on its processor, one comm pair per cut
//      boundary on the right link, durations consistent with the chain;
//   2. dependencies — the full F...F B...B chain in virtual time;
//   3. resource exclusivity — circular (mod T) disjointness per resource;
//   4. memory — event-sweep of in-flight activation counts per processor,
//      plus static weights and communication buffers, against M.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "core/chain.hpp"
#include "core/partition.hpp"
#include "core/platform.hpp"
#include "core/types.hpp"

namespace madpipe {

enum class OpKind {
  Forward,       ///< F of a stage
  Backward,      ///< B of a stage
  CommForward,   ///< activation a^(boundary) moving downstream
  CommBackward,  ///< gradient b^(boundary) moving upstream
};

const char* to_string(OpKind kind) noexcept;

/// A compute or communication resource of the platform.
struct ResourceId {
  enum class Kind { Processor, Link };
  Kind kind = Kind::Processor;
  int a = 0;  ///< processor index; for links, the smaller endpoint
  int b = 0;  ///< for links, the larger endpoint; unused for processors

  static ResourceId processor(int p) { return {Kind::Processor, p, 0}; }
  static ResourceId link(int p, int q);

  bool operator==(const ResourceId&) const = default;
  bool operator<(const ResourceId& other) const;
  std::string to_string() const;
};

/// One operation of the periodic pattern.
struct PatternOp {
  OpKind kind = OpKind::Forward;
  int stage = 0;  ///< stage index; for comms, the boundary *after* this stage
  ResourceId resource;
  Seconds start = 0.0;     ///< t ∈ [0, period)
  Seconds duration = 0.0;
  long long shift = 0;     ///< h ≥ 0

  /// z = t + h·T: the absolute time this op processes batch 0.
  Seconds virtual_time(Seconds period) const {
    return start + static_cast<double>(shift) * period;
  }
};

/// A periodic pattern: period plus its operations.
struct PeriodicPattern {
  Seconds period = 0.0;
  std::vector<PatternOp> ops;

  /// Build an op from a virtual time z ≥ 0, splitting it into (start, shift).
  static PatternOp make_op(OpKind kind, int stage, ResourceId resource,
                           Seconds virtual_time, Seconds duration,
                           Seconds period);
};

struct ValidationOptions {
  bool check_memory = true;
  /// Relative tolerance for time comparisons (scaled by the period).
  double tolerance = 1e-7;
};

/// One instant of a processor's steady-state activation occupancy.
struct MemorySweepPoint {
  Seconds time = 0.0;            ///< event instant in [0, T)
  Bytes activation_bytes = 0.0;  ///< in-flight stored activations at `time`
};

/// Steady-state memory sweep of one processor: the in-flight activation
/// bytes at every F/B completion instant (mod T) of the stages living on it.
/// This is the exact event sweep `validate_pattern` checks memory with; the
/// report subsystem builds its memory-over-time curves from the same data,
/// so both sides agree bit for bit. The processor's total footprint at any
/// point is Allocation::static_memory + activation_bytes.
struct MemorySweep {
  std::vector<MemorySweepPoint> points;  ///< sweep order, not time-sorted
  Bytes peak_activation_bytes = 0.0;
  std::vector<int> stages;             ///< stage indices on the processor
  std::vector<int> stage_max_inflight; ///< parallel to `stages`
  std::string error;  ///< non-empty when F/B ops are missing or inconsistent
  bool ok() const { return error.empty(); }
};

/// Sweep the steady-state activation memory of `processor`. Fails (with a
/// message in `error`) when the pattern misses a stage's F/B op or a stage's
/// backward runs ahead of its forward.
MemorySweep sweep_processor_memory(const PeriodicPattern& pattern,
                                   const Allocation& allocation,
                                   const Chain& chain, int processor,
                                   double tolerance = 1e-7);

/// Fill `instants` with 0 followed by the F and B completion instants
/// (mod `period`) of `stages`, in stage order: the instants at which the
/// in-flight activation count of a processor holding `stages` can change.
/// `fwd`/`bwd` are indexed by stage.
void completion_instants(std::span<const PatternOp* const> fwd,
                         std::span<const PatternOp* const> bwd,
                         std::span<const int> stages, Seconds period,
                         std::vector<Seconds>& instants);

/// Result of sweep_inflight.
struct InflightPeak {
  Bytes peak_activation_bytes = 0.0;  ///< max over the swept instants
  int negative_stage = -1;  ///< a stage whose backward runs ahead, or −1
  bool ok() const noexcept { return negative_stage < 0; }
};

/// The one in-flight activation arithmetic of this library: validate_pattern,
/// sweep_processor_memory and the branch-and-bound leaf check all call it,
/// so their memory verdicts agree bit for bit. At each of `instants` (in
/// order) it counts every stage's in-flight batches, sums the stored bytes
/// in stage order and keeps the peak; it stops at the first negative count.
/// `stage_bytes` holds Partitioning::stage_stored_activations by stage, and
/// `stage_max_inflight` (parallel to `stages`) is raised to each stage's
/// largest count. Writes only into the caller's buffers.
InflightPeak sweep_inflight(std::span<const PatternOp* const> fwd,
                            std::span<const PatternOp* const> bwd,
                            std::span<const int> stages,
                            std::span<const Bytes> stage_bytes,
                            std::span<const Seconds> instants, Seconds period,
                            double tolerance,
                            std::span<int> stage_max_inflight);

struct ValidationResult {
  bool valid = true;
  std::vector<std::string> errors;
  /// Peak memory per processor (weights + buffers + in-flight activations).
  std::vector<Bytes> processor_memory_peak;
  /// Max in-flight batches per stage (the stage's "group number").
  std::vector<int> stage_active_batches;

  void fail(std::string message);
};

/// Exact verification of `pattern` against the allocation it claims to
/// schedule. Always fills the memory/active-batch diagnostics when the
/// structure is sound, even if memory exceeds M (the error list says so).
ValidationResult validate_pattern(const PeriodicPattern& pattern,
                                  const Allocation& allocation,
                                  const Chain& chain, const Platform& platform,
                                  const ValidationOptions& options = {});

}  // namespace madpipe
