#include "domain/exchange.hpp"

#include <algorithm>
#include <cmath>
#include <span>
#include <stdexcept>

#include "elastic/assignment.hpp"
#include "minimpi/tags.hpp"
#include "util/log.hpp"
#include "util/telemetry.hpp"

namespace parpde::domain {

namespace {

// Copies the [y0, y0+hh) x [x0, x0+ww) window of a [C, h, w] tensor into a
// packed strip buffer (length C * hh * ww), reusing its capacity.
void pack_region_into(const Tensor& t, std::int64_t y0, std::int64_t hh,
                      std::int64_t x0, std::int64_t ww,
                      std::vector<float>& out) {
  const auto c = t.dim(0), h = t.dim(1), w = t.dim(2);
  out.resize(static_cast<std::size_t>(c * hh * ww));
  float* dst = out.data();
  for (std::int64_t ic = 0; ic < c; ++ic) {
    for (std::int64_t y = 0; y < hh; ++y) {
      const float* src = t.data() + (ic * h + y0 + y) * w + x0;
      std::copy(src, src + ww, dst);
      dst += ww;
    }
  }
}

std::vector<float> pack_region(const Tensor& t, std::int64_t y0, std::int64_t hh,
                               std::int64_t x0, std::int64_t ww) {
  std::vector<float> out;
  pack_region_into(t, y0, hh, x0, ww, out);
  return out;
}

// Inverse of pack_region.
void unpack_region(Tensor& t, std::int64_t y0, std::int64_t hh, std::int64_t x0,
                   std::int64_t ww, std::span<const float> strip) {
  const auto c = t.dim(0), h = t.dim(1), w = t.dim(2);
  if (strip.size() != static_cast<std::size_t>(c * hh * ww)) {
    throw std::runtime_error("domain exchange: block size mismatch");
  }
  const float* src = strip.data();
  for (std::int64_t ic = 0; ic < c; ++ic) {
    for (std::int64_t y = 0; y < hh; ++y) {
      float* dst = t.data() + (ic * h + y0 + y) * w + x0;
      std::copy(src, src + ww, dst);
      src += ww;
    }
  }
}

// Zeroes the [y0, y0+hh) x [x0, x0+ww) window of a [C, h, w] tensor.
void zero_region(Tensor& t, std::int64_t y0, std::int64_t hh, std::int64_t x0,
                 std::int64_t ww) {
  const auto c = t.dim(0), h = t.dim(1), w = t.dim(2);
  for (std::int64_t ic = 0; ic < c; ++ic) {
    for (std::int64_t y = 0; y < hh; ++y) {
      float* dst = t.data() + (ic * h + y0 + y) * w + x0;
      std::fill(dst, dst + ww, 0.0f);
    }
  }
}

// Interface-residual probes for the health monitor: mean absolute difference
// between two lines of a [C, h, w] tensor — the innermost received halo line
// against the adjacent interior line. Zero when neighbouring surrogates agree
// at the seam; growth across steps is the paper's stitching-error failure
// mode surfacing before frames visibly tear.

// Rows ya vs yb over x in [x0, x0 + len).
double row_residual(const Tensor& t, std::int64_t ya, std::int64_t yb,
                    std::int64_t x0, std::int64_t len) {
  const auto c = t.dim(0), h = t.dim(1), w = t.dim(2);
  double sum = 0.0;
  for (std::int64_t ic = 0; ic < c; ++ic) {
    const float* a = t.data() + (ic * h + ya) * w + x0;
    const float* b = t.data() + (ic * h + yb) * w + x0;
    for (std::int64_t i = 0; i < len; ++i) {
      sum += std::fabs(static_cast<double>(a[i]) - static_cast<double>(b[i]));
    }
  }
  return sum / static_cast<double>(c * len);
}

// Columns xa vs xb over all rows.
double col_residual(const Tensor& t, std::int64_t xa, std::int64_t xb) {
  const auto c = t.dim(0), h = t.dim(1), w = t.dim(2);
  double sum = 0.0;
  for (std::int64_t ic = 0; ic < c; ++ic) {
    const float* base = t.data() + ic * h * w;
    for (std::int64_t y = 0; y < h; ++y) {
      sum += std::fabs(static_cast<double>(base[y * w + xa]) -
                       static_cast<double>(base[y * w + xb]));
    }
  }
  return sum / static_cast<double>(c * h);
}

// Copies the [sy, sy+hh) x [sx, sx+ww) window of `src` into `dst` at
// (dy, dx); both are [C, h, w] with the same channel count.
void copy_region(Tensor& dst, std::int64_t dy, std::int64_t dx,
                 const Tensor& src, std::int64_t sy, std::int64_t sx,
                 std::int64_t hh, std::int64_t ww) {
  const auto c = src.dim(0), sh = src.dim(1), sw = src.dim(2);
  const auto h = dst.dim(1), w = dst.dim(2);
  for (std::int64_t ic = 0; ic < c; ++ic) {
    for (std::int64_t y = 0; y < hh; ++y) {
      const float* s = src.data() + (ic * sh + sy + y) * sw + sx;
      float* d = dst.data() + (ic * h + dy + y) * w + dx;
      std::copy(s, s + ww, d);
    }
  }
}

// Resizes a staging tensor to [c, h, w] unless it already has that shape;
// returns 1 when it had to allocate (the growth-event count).
std::uint64_t ensure_shape(Tensor& t, std::int64_t c, std::int64_t h,
                           std::int64_t w) {
  if (t.ndim() == 3 && t.dim(0) == c && t.dim(1) == h && t.dim(2) == w) {
    return 0;
  }
  t = Tensor({c, h, w});
  return 1;
}

}  // namespace

std::string BorderHealth::describe() const {
  std::string out;
  for (const mpi::Direction d : mpi::kAllDirections) {
    if (!degraded(d)) continue;
    if (!out.empty()) out += ',';
    out += direction_name(d).front();
  }
  return out;
}

HaloExchange::HaloExchange(mpi::Communicator& comm, const Partition& partition,
                           int task, const elastic::Assignment& owners,
                           const std::vector<HaloExchange*>& peers,
                           std::int64_t halo, const HaloOptions& options,
                           BorderHealth* health)
    : comm_(comm),
      partition_(partition),
      task_(task),
      owners_(&owners),
      peers_(&peers),
      halo_(halo),
      options_(options),
      health_(health) {
  if (task < 0 || task >= partition.blocks() || task >= mpi::tags::kMaxTasks) {
    throw std::invalid_argument("HaloExchange: task out of range");
  }
  block_ = partition.block(task % partition.px(), task / partition.px());
  if (halo <= 0) {
    throw std::invalid_argument("HaloExchange: halo must be positive");
  }
  if (halo > block_.height() || halo > block_.width()) {
    throw std::invalid_argument("HaloExchange: halo exceeds block size");
  }
}

HaloExchange::HaloExchange(mpi::CartComm& cart, const Partition& partition,
                           std::int64_t halo, const HaloOptions& options,
                           BorderHealth* health)
    : comm_(cart.comm()),
      partition_(partition),
      task_(cart.comm().rank()),
      owners_(nullptr),
      peers_(nullptr),
      block_(partition.block(cart.cx(), cart.cy())),
      halo_(halo),
      options_(options),
      health_(health) {
  if (halo <= 0) {
    throw std::invalid_argument("HaloExchange: halo must be positive");
  }
  if (halo > block_.height() || halo > block_.width()) {
    throw std::invalid_argument("HaloExchange: halo exceeds block size");
  }
}

int HaloExchange::neighbor(mpi::Direction side) const {
  return partition_.neighbor(task_, side);
}

int HaloExchange::owner(int task) const {
  return owners_ != nullptr ? owners_->owner(task) : task;
}

const HaloExchange* HaloExchange::local_peer(mpi::Direction side) const {
  const int nt = neighbor(side);
  if (nt < 0 || peers_ == nullptr || owner(nt) != comm_.rank()) return nullptr;
  const HaloExchange* peer = (*peers_)[static_cast<std::size_t>(nt)];
  if (peer == nullptr) {
    throw std::logic_error("HaloExchange: co-resident task " +
                           std::to_string(nt) + " has no exchange");
  }
  return peer;
}

bool HaloExchange::live(mpi::Direction side) const {
  return neighbor(side) >= 0 && !(health_ != nullptr && health_->degraded(side));
}

void HaloExchange::degrade(mpi::Direction side, const std::string& why) {
  static telemetry::Counter& degraded_borders =
      telemetry::counter("inference.degraded_borders");
  const int nt = neighbor(side);
  const std::string what = "task " + std::to_string(task_) + ": halo border " +
                           direction_name(side) + " (neighbour task " +
                           std::to_string(nt) + " on rank " +
                           std::to_string(owner(nt)) + ") lost: " + why;
  if (health_ == nullptr) {
    throw std::runtime_error("exchange_halo: " + what);
  }
  degraded_borders.add(1);
  health_->mark_degraded(side);
  util::log_warn() << what << "; border degraded to zero padding";
}

void HaloExchange::drain_stale(mpi::Direction side) {
  // A degraded border's neighbour may keep sending until it degrades its own
  // side; discard that stale mail so it cannot mismatch a later step (and so
  // the finalize leak check stays clean).
  if (neighbor(side) < 0 || health_ == nullptr || !health_->degraded(side) ||
      local_peer(side) != nullptr) {
    return;
  }
  const int src = owner(neighbor(side));
  const int tag = mpi::tags::halo_tag(task_, static_cast<int>(mpi::opposite(side)));
  while (comm_.recv_for<float>(src, tag, std::chrono::milliseconds(0),
                               &recv_strip_) != mpi::RecvStatus::kTimeout) {
  }
}

void HaloExchange::send_strip(mpi::Direction side,
                              util::AccumulatingTimer* comm_time) {
  util::WallTimer timer;
  const int nt = neighbor(side);
  comm_.send<float>(owner(nt), mpi::tags::halo_tag(nt, static_cast<int>(side)),
                    send_strip_);
  bytes_sent_ += send_strip_.size() * sizeof(float);
  if (comm_time != nullptr) comm_time->add(timer.seconds());
}

// Bounded receive across `side` with exponentially backed-off retry: each
// timeout doubles the next attempt's wait (capped at `max_recv_timeout`)
// until either `max_retries` attempts or the cumulative `recv_budget` is
// spent — a dead neighbour costs a handful of wakeups, not 40. A CRC-corrupt
// strip is a definitive loss (the payload was consumed — waiting longer
// would only steal the next step's strip and desynchronize the border
// forever). Returns false when the border just degraded; the caller leaves
// its halo zero. Timeout choices never touch the send-side fault engine, so
// per-channel fault-draw sequences are unchanged by any backoff schedule.
// Threading (src/minimpi/README.md): one task's receives run strictly in
// sequence on its rank's thread, and each (source, task tag) channel belongs
// to exactly one task, so every halo channel keeps a single consumer.
bool HaloExchange::robust_recv(mpi::Direction side,
                               util::AccumulatingTimer* comm_time) {
  static telemetry::Counter& retries = telemetry::counter("comm.retries");
  static telemetry::Histogram& retry_latency =
      telemetry::histogram("comm.retry_seconds");
  const int src = owner(neighbor(side));
  const int tag = mpi::tags::halo_tag(task_, static_cast<int>(mpi::opposite(side)));
  const std::int64_t stall_start =
      telemetry::enabled() ? telemetry::now_us() : 0;
  util::WallTimer timer;
  int timeouts = 0;
  bool got = false;
  bool corrupt = false;
  std::chrono::milliseconds wait = options_.recv_timeout;
  std::chrono::milliseconds spent{0};
  for (int attempt = 0; attempt <= options_.max_retries; ++attempt) {
    if (attempt > 0 && spent >= options_.recv_budget) break;
    const std::chrono::milliseconds slice =
        std::min(wait, std::max(options_.recv_budget - spent,
                                std::chrono::milliseconds(1)));
    const mpi::RecvStatus status =
        comm_.recv_for<float>(src, tag, slice, &recv_strip_);
    if (status == mpi::RecvStatus::kOk) {
      got = true;
      break;
    }
    if (status == mpi::RecvStatus::kCorrupt) {
      corrupt = true;
      break;
    }
    spent += slice;
    wait = std::min(wait * 2, options_.max_recv_timeout);
    ++timeouts;
    retries.add(1);
  }
  if (comm_time != nullptr) comm_time->add(timer.seconds());
  if (timeouts > 0) {
    retry_latency.observe(timer.seconds());
    // Retroactive span covering the whole degraded wait, so the critical-path
    // analyzer can attribute this slice of halo.finish to border trouble
    // rather than ordinary receive wait.
    if (telemetry::enabled()) {
      telemetry::emit_span("halo.stall", "comm", stall_start,
                           telemetry::now_us() - stall_start);
    }
  }
  if (got) return true;
  degrade(side, corrupt ? "strip failed its CRC envelope"
                        : "no strip within the retry budget (" +
                              std::to_string(timeouts) + " attempts)");
  return false;
}

void HaloExchange::observe_seam(double residual) {
  health_->observe_residual(residual);
  last_residual_ = residual;
}

void HaloExchange::begin(const Tensor& interior,
                         util::AccumulatingTimer* comm_time) {
  if (interior.ndim() != 3 || interior.dim(1) != block_.height() ||
      interior.dim(2) != block_.width()) {
    throw std::invalid_argument("HaloExchange: interior does not match block");
  }
  if (interior_ != nullptr) {
    throw std::logic_error("HaloExchange::begin: previous exchange unfinished");
  }
  static telemetry::Counter& exchanges = telemetry::counter("halo.exchanges");
  telemetry::Span span("halo.begin", "comm");
  exchanges.add(1);
  util::WallTimer timer;
  bytes_sent_ = 0;
  interior_ = &interior;
  const auto bh = interior.dim(1);
  const auto bw = interior.dim(2);

  for (const mpi::Direction side : mpi::kAllDirections) drain_stale(side);

  // Phase-1 sends: the bare interior's west/east strips leave as soon as the
  // step's output exists (buffered — the mailbox copy completes them). A
  // co-resident neighbour copies them itself in its finish_x().
  using mpi::Direction;
  if (live(Direction::kWest) && local_peer(Direction::kWest) == nullptr) {
    pack_region_into(interior, 0, bh, 0, halo_, send_strip_);
    send_strip(Direction::kWest, comm_time);
  }
  if (live(Direction::kEast) && local_peer(Direction::kEast) == nullptr) {
    pack_region_into(interior, 0, bh, bw - halo_, halo_, send_strip_);
    send_strip(Direction::kEast, comm_time);
  }
  seconds_ = timer.seconds();
}

void HaloExchange::finish_x(util::AccumulatingTimer* comm_time) {
  if (interior_ == nullptr) {
    throw std::logic_error("HaloExchange::finish_x without begin");
  }
  using mpi::Direction;
  telemetry::Span span("halo.finish", "comm");
  util::WallTimer timer;
  const Tensor& interior = *interior_;
  const auto c = interior.dim(0);
  const auto bh = interior.dim(1);
  const auto bw = interior.dim(2);

  // Phase 1 completes: west/east strips land in the x-extended staging
  // tensor. The side bands are re-zeroed every step because the buffer is
  // persistent and a degraded (or physical) border must stay zero.
  growths_ += ensure_shape(ext_x_, c, bh, bw + 2 * halo_);
  copy_region(ext_x_, 0, halo_, interior, 0, 0, bh, bw);
  zero_region(ext_x_, 0, bh, 0, halo_);
  zero_region(ext_x_, 0, bh, halo_ + bw, halo_);
  // Health monitor: gauge the seam mismatch of each received strip (innermost
  // halo line vs the adjacent interior line). Only with a BorderHealth to
  // record into — callers without a degradation story skip the probes.
  const bool probe = health_ != nullptr && options_.probe_residuals;
  for (const Direction side : {Direction::kEast, Direction::kWest}) {
    if (!live(side)) continue;
    // Our east halo is the east neighbour's west strip, and vice versa.
    const std::int64_t x0 = side == Direction::kEast ? halo_ + bw : 0;
    if (const HaloExchange* peer = local_peer(side)) {
      if (peer->interior_ == nullptr) {
        throw std::logic_error("HaloExchange::finish_x: co-resident "
                               "neighbour has not begun");
      }
      const Tensor& nb = *peer->interior_;
      copy_region(ext_x_, 0, x0, nb, 0,
                  side == Direction::kEast ? 0 : nb.dim(2) - halo_, bh, halo_);
    } else if (robust_recv(side, comm_time)) {
      unpack_region(ext_x_, 0, bh, x0, halo_, recv_strip_);
    } else {
      continue;
    }
    if (probe) {
      observe_seam(side == Direction::kEast
                       ? col_residual(ext_x_, halo_ + bw, halo_ + bw - 1)
                       : col_residual(ext_x_, halo_ - 1, halo_));
    }
  }

  // Phase-2 sends: south/north strips of the x-extended tensor, so the
  // diagonal corners arrive via the row neighbours.
  if (live(Direction::kSouth) && local_peer(Direction::kSouth) == nullptr) {
    pack_region_into(ext_x_, 0, halo_, 0, bw + 2 * halo_, send_strip_);
    send_strip(Direction::kSouth, comm_time);
  }
  if (live(Direction::kNorth) && local_peer(Direction::kNorth) == nullptr) {
    pack_region_into(ext_x_, bh - halo_, halo_, 0, bw + 2 * halo_,
                     send_strip_);
    send_strip(Direction::kNorth, comm_time);
  }
  seconds_ += timer.seconds();
}

void HaloExchange::finish_y(Tensor& padded,
                            util::AccumulatingTimer* comm_time) {
  if (interior_ == nullptr || ext_x_.ndim() != 3) {
    throw std::logic_error("HaloExchange::finish_y without finish_x");
  }
  using mpi::Direction;
  static telemetry::Counter& halo_bytes = telemetry::counter("halo.bytes_sent");
  static telemetry::Histogram& latency =
      telemetry::histogram("halo.exchange_seconds");
  static telemetry::Gauge& seam_gauge =
      telemetry::gauge("halo.interface_residual");
  telemetry::Span span("halo.finish", "comm");
  util::WallTimer timer;
  const auto c = ext_x_.dim(0);
  const auto bh = ext_x_.dim(1);
  const auto bw = ext_x_.dim(2) - 2 * halo_;
  const auto pw = bw + 2 * halo_;

  growths_ += ensure_shape(padded, c, bh + 2 * halo_, pw);
  copy_region(padded, halo_, 0, ext_x_, 0, 0, bh, pw);
  zero_region(padded, 0, halo_, 0, pw);
  zero_region(padded, halo_ + bh, halo_, 0, pw);
  const bool probe = health_ != nullptr && options_.probe_residuals;
  for (const Direction side : {Direction::kNorth, Direction::kSouth}) {
    if (!live(side)) continue;
    // Our north halo is the north neighbour's south strip, and vice versa.
    const std::int64_t y0 = side == Direction::kNorth ? halo_ + bh : 0;
    if (const HaloExchange* peer = local_peer(side)) {
      const Tensor& nb = peer->ext_x_;
      copy_region(padded, y0, 0, nb,
                  side == Direction::kNorth ? 0 : nb.dim(1) - halo_, 0, halo_,
                  pw);
    } else if (robust_recv(side, comm_time)) {
      unpack_region(padded, y0, halo_, 0, pw, recv_strip_);
    } else {
      continue;
    }
    if (probe) {
      observe_seam(
          side == Direction::kNorth
              ? row_residual(padded, halo_ + bh, halo_ + bh - 1, halo_, bw)
              : row_residual(padded, halo_ - 1, halo_, halo_, bw));
    }
  }
  // One shared-gauge write per exchange, not per strip: the rank threads
  // all write this cache line.
  if (probe) seam_gauge.set(last_residual_);
  interior_ = nullptr;
  halo_bytes.add(bytes_sent_);
  latency.observe(seconds_ + timer.seconds());
}

Tensor exchange_halo(mpi::CartComm& cart, const Partition& partition,
                     const Tensor& interior, std::int64_t halo,
                     util::AccumulatingTimer* comm_time,
                     const HaloOptions& options, BorderHealth* health) {
  if (interior.ndim() != 3) {
    throw std::invalid_argument("exchange_halo: expected [C,bh,bw] interior");
  }
  const BlockRange block = partition.block(cart.cx(), cart.cy());
  if (interior.dim(1) != block.height() || interior.dim(2) != block.width()) {
    throw std::invalid_argument("exchange_halo: interior does not match block");
  }
  if (halo < 0 || halo > interior.dim(1) || halo > interior.dim(2)) {
    throw std::invalid_argument("exchange_halo: halo exceeds block size");
  }
  if (halo == 0) return interior;

  HaloExchange exchange(cart, partition, halo, options, health);
  Tensor padded;
  exchange.begin(interior, comm_time);
  exchange.finish(padded, comm_time);
  return padded;
}

Tensor gather_field(mpi::CartComm& cart, const Partition& partition,
                    const Tensor& interior) {
  mpi::Communicator& comm = cart.comm();
  if (comm.rank() != 0) {
    comm.send<float>(0, mpi::tags::kFieldGather.base, interior.values());
    return {};
  }
  const auto c = interior.dim(0);
  Tensor full({c, partition.grid_h(), partition.grid_w()});
  const BlockRange root = partition.block_of_rank(0);
  unpack_region(full, root.h0, root.height(), root.w0, root.width(),
                interior.values());
  for (int r = 1; r < comm.size(); ++r) {
    const auto strip = comm.recv<float>(r, mpi::tags::kFieldGather.base);
    const BlockRange block = partition.block_of_rank(r);
    unpack_region(full, block.h0, block.height(), block.w0, block.width(),
                  strip);
  }
  return full;
}

Tensor scatter_field(mpi::CartComm& cart, const Partition& partition,
                     const Tensor& full) {
  mpi::Communicator& comm = cart.comm();
  const BlockRange mine = partition.block(cart.cx(), cart.cy());
  if (comm.rank() == 0) {
    if (full.ndim() != 3 || full.dim(1) != partition.grid_h() ||
        full.dim(2) != partition.grid_w()) {
      throw std::invalid_argument("scatter_field: bad full field shape");
    }
    const auto c = full.dim(0);
    for (int r = 1; r < comm.size(); ++r) {
      const BlockRange block = partition.block_of_rank(r);
      comm.send<float>(r, mpi::tags::kFieldScatter.base,
                       pack_region(full, block.h0, block.height(), block.w0,
                                   block.width()));
    }
    Tensor mine_t({c, mine.height(), mine.width()});
    unpack_region(mine_t, 0, mine.height(), 0, mine.width(),
                  pack_region(full, mine.h0, mine.height(), mine.w0,
                              mine.width()));
    return mine_t;
  }
  const auto strip = comm.recv<float>(0, mpi::tags::kFieldScatter.base);
  const std::int64_t c =
      static_cast<std::int64_t>(strip.size()) / (mine.height() * mine.width());
  Tensor mine_t({c, mine.height(), mine.width()});
  unpack_region(mine_t, 0, mine.height(), 0, mine.width(), strip);
  return mine_t;
}

}  // namespace parpde::domain
