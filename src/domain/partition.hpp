#pragma once

// Static 2-d block partition of an H x W grid over a px x py Cartesian rank
// grid (Sec. III, training step 1: "split each data set into smaller
// sections"). Rows/columns are distributed as evenly as possible; block (cx,
// cy) owns a contiguous index range in each direction.

#include <cstdint>

#include "minimpi/cart.hpp"

namespace parpde::domain {

// Half-open index ranges in global grid coordinates.
struct BlockRange {
  std::int64_t h0 = 0;
  std::int64_t h1 = 0;
  std::int64_t w0 = 0;
  std::int64_t w1 = 0;

  [[nodiscard]] std::int64_t height() const noexcept { return h1 - h0; }
  [[nodiscard]] std::int64_t width() const noexcept { return w1 - w0; }
  [[nodiscard]] std::int64_t points() const noexcept { return height() * width(); }

  bool operator==(const BlockRange&) const = default;
};

class Partition {
 public:
  Partition(std::int64_t grid_h, std::int64_t grid_w, int px, int py);

  [[nodiscard]] std::int64_t grid_h() const noexcept { return grid_h_; }
  [[nodiscard]] std::int64_t grid_w() const noexcept { return grid_w_; }
  [[nodiscard]] int px() const noexcept { return px_; }
  [[nodiscard]] int py() const noexcept { return py_; }
  [[nodiscard]] int blocks() const noexcept { return px_ * py_; }

  // Block owned by Cartesian coordinates (cx, cy); cx indexes the width (x)
  // direction, cy the height (y) direction. Row cy=0 owns h-range starting
  // at 0.
  [[nodiscard]] BlockRange block(int cx, int cy) const;

  // Block owned by a linear rank (rank = cy * px + cx, matching CartComm).
  [[nodiscard]] BlockRange block_of_rank(int rank) const;

  // Linear index of the block next to block `index` in direction `d`, or -1
  // at the physical boundary (the block-grid analogue of CartComm::neighbor).
  [[nodiscard]] int neighbor(int index, mpi::Direction d) const noexcept;

 private:
  // Start offset of chunk `c` when splitting `total` into `parts`.
  [[nodiscard]] static std::int64_t chunk_start(std::int64_t total, int parts,
                                                int c) noexcept;

  std::int64_t grid_h_;
  std::int64_t grid_w_;
  int px_;
  int py_;
};

// Halo width needed so that a stack of `layers` convolutions with square
// kernel `kernel` (stride 1) computes the subdomain interior exactly as a
// monolithic network would: layers * (kernel-1)/2.
[[nodiscard]] std::int64_t receptive_halo(int layers, std::int64_t kernel);

}  // namespace parpde::domain
