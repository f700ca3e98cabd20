#include "domain/partition.hpp"

#include <algorithm>
#include <stdexcept>

namespace parpde::domain {

Partition::Partition(std::int64_t grid_h, std::int64_t grid_w, int px, int py)
    : grid_h_(grid_h), grid_w_(grid_w), px_(px), py_(py) {
  if (grid_h <= 0 || grid_w <= 0) {
    throw std::invalid_argument("Partition: grid must be positive");
  }
  if (px <= 0 || py <= 0) {
    throw std::invalid_argument("Partition: rank grid must be positive");
  }
  if (px > grid_w || py > grid_h) {
    throw std::invalid_argument("Partition: more ranks than grid lines");
  }
}

std::int64_t Partition::chunk_start(std::int64_t total, int parts,
                                    int c) noexcept {
  // First (total % parts) chunks get one extra line.
  const std::int64_t base = total / parts;
  const std::int64_t rem = total % parts;
  return static_cast<std::int64_t>(c) * base + std::min<std::int64_t>(c, rem);
}

BlockRange Partition::block(int cx, int cy) const {
  if (cx < 0 || cx >= px_ || cy < 0 || cy >= py_) {
    throw std::invalid_argument("Partition::block: coordinates out of range");
  }
  BlockRange b;
  b.h0 = chunk_start(grid_h_, py_, cy);
  b.h1 = chunk_start(grid_h_, py_, cy + 1);
  b.w0 = chunk_start(grid_w_, px_, cx);
  b.w1 = chunk_start(grid_w_, px_, cx + 1);
  return b;
}

BlockRange Partition::block_of_rank(int rank) const {
  if (rank < 0 || rank >= blocks()) {
    throw std::invalid_argument("Partition::block_of_rank: bad rank");
  }
  return block(rank % px_, rank / px_);
}

int Partition::neighbor(int index, mpi::Direction d) const noexcept {
  int cx = index % px_;
  int cy = index / px_;
  switch (d) {
    case mpi::Direction::kWest: --cx; break;
    case mpi::Direction::kEast: ++cx; break;
    case mpi::Direction::kSouth: --cy; break;
    case mpi::Direction::kNorth: ++cy; break;
  }
  if (cx < 0 || cx >= px_ || cy < 0 || cy >= py_) return -1;
  return cy * px_ + cx;
}

std::int64_t receptive_halo(int layers, std::int64_t kernel) {
  if (layers <= 0 || kernel <= 0 || kernel % 2 == 0) {
    throw std::invalid_argument("receptive_halo: need odd kernel, layers > 0");
  }
  return static_cast<std::int64_t>(layers) * (kernel - 1) / 2;
}

}  // namespace parpde::domain
