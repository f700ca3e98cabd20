#pragma once

// Parallel field plumbing for inference (Sec. III): point-to-point halo
// exchange between neighbouring subdomains ("each processor sends the
// boundary data to the corresponding neighbor ... no central instance is
// used"), plus gather/scatter of full fields for validation and I/O.
//
// The halo exchange is fault-aware: receives are bounded (timeout + retry,
// never an unbounded wait — lint rule `unbounded-halo-recv`), and a border
// whose neighbour is definitively lost (retry budget exhausted, or a
// CRC-corrupt strip consumed) is *degraded*: its halo stays zero from then
// on, which is exactly the paper's zero-padding border treatment, so the
// rollout keeps producing frames instead of hanging. Degradations are sticky
// per border, recorded in BorderHealth, and counted in the
// `inference.degraded_borders` telemetry counter. See docs/robustness.md.

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "domain/partition.hpp"
#include "minimpi/cart.hpp"
#include "tensor/tensor.hpp"
#include "util/timer.hpp"

namespace parpde::elastic {
class Assignment;
}  // namespace parpde::elastic

namespace parpde::domain {

// Patience knobs for the bounded halo receive. Attempts back off
// exponentially: the first waits `recv_timeout`, each miss doubles the wait
// up to `max_recv_timeout`, and the border degrades once `max_retries`
// attempts or the cumulative `recv_budget` is exhausted — whichever comes
// first. The defaults give each border ~10 s of total patience per step
// (reached after ~7 attempts instead of 40 fixed-interval ones, so a dead
// neighbour costs far fewer wakeups) — generous enough that a fault-free
// run never degrades even under sanitizers, tight enough that a genuinely
// dead neighbour cannot stall a rollout forever. Chaos tests shrink these.
// Timeouts are receive-side only: fault-injection draws happen on the send
// side, so tuning patience never perturbs a seeded fault sequence.
struct HaloOptions {
  std::chrono::milliseconds recv_timeout{250};       // first receive attempt
  std::chrono::milliseconds max_recv_timeout{2000};  // backoff cap
  std::chrono::milliseconds recv_budget{10000};      // cumulative wall clock
  int max_retries = 40;  // attempts beyond the first
  // Health monitor: gauge the interface residual (seam mismatch) of every
  // received strip into BorderHealth. O(border length) per strip — cheap
  // next to the O(area) forward pass; off only for overhead benchmarking.
  bool probe_residuals = true;
};

// Sticky per-border degradation state of one subdomain task, carried across
// rollout steps. A degraded border is never sent to or received from again;
// its halo strip stays zero (the paper's zero-padding treatment).
class BorderHealth {
 public:
  [[nodiscard]] bool degraded(mpi::Direction d) const {
    return degraded_[static_cast<std::size_t>(d)];
  }
  void mark_degraded(mpi::Direction d) {
    degraded_[static_cast<std::size_t>(d)] = true;
  }
  [[nodiscard]] bool any() const {
    for (const bool b : degraded_) {
      if (b) return true;
    }
    return false;
  }
  [[nodiscard]] int count() const {
    int n = 0;
    for (const bool b : degraded_) n += b ? 1 : 0;
    return n;
  }
  // Compact label of the degraded borders, e.g. "E,N" ("" when healthy).
  [[nodiscard]] std::string describe() const;

  // Recovery hook (ElasticOptions::enabled only): after the failed
  // neighbour's tasks have been adopted and their halo channels re-pointed,
  // the degradation is no longer sticky — the border is healthy again.
  // Residual history is kept.
  void reset() { degraded_ = {}; }

  // Health-monitor hook: records the interface residual of one received
  // strip (mean |received − adjacent interior line|). A residual that grows
  // across steps means the neighbouring subdomain's surrogate is diverging
  // from this one at the seam — the paper's stitching-error failure mode.
  void observe_residual(double r) {
    if (r > max_residual_) max_residual_ = r;
  }
  [[nodiscard]] double max_residual() const noexcept { return max_residual_; }

 private:
  std::array<bool, 4> degraded_{};  // indexed by mpi::Direction
  double max_residual_ = 0.0;
};

// Halo exchange of one subdomain *task* with persistent staging buffers, the
// strip path of parallel_rollout (core/inference.hpp). Task t is the
// partition block (t % px, t / px); a rank may host several tasks, so every
// strip is addressed to its destination task (tags::halo_tag) and routed to
// the rank that owns it. The exchange runs in three calls, so that every
// task a rank hosts can post before any of them waits:
//
//   for (task : hosted) hx[task].begin(interior[task]);    // W/E sends
//   for (task : hosted) hx[task].finish_x();               // W/E receives,
//                                                          //  S/N sends
//   for (task : hosted) hx[task].finish_y(padded[task]);   // S/N receives
//
// begin() posts the interior's west/east strips (buffered sends — returns
// immediately); finish_x() receives them into the x-extended staging and
// posts its south/north strips, so diagonal corners travel via the row
// neighbours; finish_y() receives those and writes the
// [C, bh + 2 halo, bw + 2 halo] result into `padded` (resized on first use,
// reused afterwards — the steady state allocates nothing beyond the minimpi
// mailbox copies). A neighbour task hosted on the same rank is served by a
// direct copy out of its exchange instead of a message.
//
// Receives are bounded by `options` with exponential backoff and CRC-checked.
// A border whose neighbour is definitively lost degrades into `health` (or
// throws when health is null): sticky, never sent to or received from again,
// its halo left zero. The referenced communicator, partition, owner map and
// health must outlive the object.
class HaloExchange {
 public:
  // Task form. `owners` maps every task to its rank and is read on every
  // call, so a rebalance re-points the channels; `peers[t]` is task t's
  // exchange on this rank and must be set for every task the rank hosts.
  HaloExchange(mpi::Communicator& comm, const Partition& partition, int task,
               const elastic::Assignment& owners,
               const std::vector<HaloExchange*>& peers, std::int64_t halo,
               const HaloOptions& options = {}, BorderHealth* health = nullptr);
  // One task per rank: this rank's block of the cart grid, task == rank.
  HaloExchange(mpi::CartComm& cart, const Partition& partition,
               std::int64_t halo, const HaloOptions& options = {},
               BorderHealth* health = nullptr);

  // Posts the west/east strips of `interior` ([C, bh, bw]), which must stay
  // alive and unchanged until finish_y(). Wall time spent in sends and
  // receives accumulates into `comm_time` in all three calls.
  void begin(const Tensor& interior,
             util::AccumulatingTimer* comm_time = nullptr);
  // Receives the west/east strips and posts the south/north ones. Every
  // co-resident neighbour must have called begin() first.
  void finish_x(util::AccumulatingTimer* comm_time = nullptr);
  // Receives the south/north strips and assembles the padded input. Every
  // co-resident neighbour must have called finish_x() first.
  void finish_y(Tensor& padded, util::AccumulatingTimer* comm_time = nullptr);
  // finish_x() then finish_y(): the whole exchange of a rank hosting one task.
  void finish(Tensor& padded, util::AccumulatingTimer* comm_time = nullptr) {
    finish_x(comm_time);
    finish_y(padded, comm_time);
  }

  [[nodiscard]] std::int64_t halo() const noexcept { return halo_; }
  // Staging allocations so far (ext_x and the caller's padded tensor); flat
  // after the first exchange in the steady state.
  [[nodiscard]] std::uint64_t growth_events() const noexcept { return growths_; }

 private:
  // Neighbour task across `side`, or -1 at the physical boundary.
  [[nodiscard]] int neighbor(mpi::Direction side) const;
  [[nodiscard]] int owner(int task) const;
  // The neighbour's exchange when it is hosted on this rank, else null.
  [[nodiscard]] const HaloExchange* local_peer(mpi::Direction side) const;
  void send_strip(mpi::Direction side, util::AccumulatingTimer* comm_time);
  bool robust_recv(mpi::Direction side, util::AccumulatingTimer* comm_time);
  void drain_stale(mpi::Direction side);
  void degrade(mpi::Direction side, const std::string& why);
  [[nodiscard]] bool live(mpi::Direction side) const;
  // Health-monitor probe of one received strip's seam mismatch.
  void observe_seam(double residual);

  mpi::Communicator& comm_;
  const Partition& partition_;
  int task_;
  const elastic::Assignment* owners_;        // null: task == rank
  const std::vector<HaloExchange*>* peers_;  // null: no co-resident tasks
  BlockRange block_;
  std::int64_t halo_;
  HaloOptions options_;
  BorderHealth* health_;

  const Tensor* interior_ = nullptr;  // set by begin(), cleared by finish_y()
  Tensor ext_x_;                      // [C, bh, bw + 2 halo] phase-1 staging
  std::vector<float> send_strip_;     // packed outgoing strip (reused)
  std::vector<float> recv_strip_;     // packed incoming strip (reused)
  std::uint64_t bytes_sent_ = 0;      // strip payload bytes of this exchange
  double seconds_ = 0.0;              // wall time of this exchange so far
  std::uint64_t growths_ = 0;
  double last_residual_ = 0.0;  // newest seam probe, for the shared gauge
};

// Surrounds this rank's interior [C, bh, bw] with a halo of width `halo`
// filled from the four neighbours (two-phase exchange, so diagonal corners
// are correct). Physical-boundary halo stays zero. Returns
// [C, bh + 2 halo, bw + 2 halo]. If `comm_time` is non-null, the wall time
// spent in sends/receives is accumulated into it.
//
// One-shot wrapper over HaloExchange; receives are bounded by `options`.
// When a border's retry budget is exhausted (or its strip arrives
// CRC-corrupt), the border is degraded: with `health` non-null the
// degradation is recorded there and the exchange continues with a zero halo
// on that side; with `health` null (callers that have no degradation story,
// e.g. benchmarks) the exchange throws instead — either way it never hangs.
Tensor exchange_halo(mpi::CartComm& cart, const Partition& partition,
                     const Tensor& interior, std::int64_t halo,
                     util::AccumulatingTimer* comm_time = nullptr,
                     const HaloOptions& options = {},
                     BorderHealth* health = nullptr);

// Collects per-rank interiors into the full [C, H, W] field on rank 0
// (other ranks get an empty tensor).
Tensor gather_field(mpi::CartComm& cart, const Partition& partition,
                    const Tensor& interior);

// Rank 0 distributes a full [C, H, W] field; every rank returns its interior
// block [C, bh, bw]. On non-root ranks `full` is ignored.
Tensor scatter_field(mpi::CartComm& cart, const Partition& partition,
                     const Tensor& full);

}  // namespace parpde::domain
