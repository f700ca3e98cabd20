// Ceiling probes of the traced run, so achieved rates can be read against
// what this machine reaches: single-thread peak of the blocked tensor::gemm
// on a large square shape, and copy bandwidth over arrays 4x the L3 cache.

#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "ledger.hpp"
#include "perfbench.hpp"
#include "tensor/gemm.hpp"
#include "util/aligned.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {

namespace {

constexpr std::int64_t kGemmSide = 1024;
constexpr int kGemmReps = 5;
constexpr int kCopyReps = 3;
constexpr long kFallbackL3Bytes = 300L << 20;

double best_ms(const char* span) {
  const std::vector<double> d = ledger().durations_ms(span);
  return *std::min_element(d.begin(), d.end());
}

}  // namespace

void run_ceiling_probes(Result& out) {
  parpde::util::ThreadPool::configure_global(0);  // single thread
  Scope probes("bench.ceiling_probes");
  {
    const std::int64_t n = kGemmSide;
    parpde::util::AlignedVector<float> a(static_cast<std::size_t>(n * n), 0.5f);
    parpde::util::AlignedVector<float> b(static_cast<std::size_t>(n * n), 0.25f);
    parpde::util::AlignedVector<float> c(static_cast<std::size_t>(n * n));
    for (int r = 0; r < kGemmReps; ++r) {
      Scope s("bench.gemm_peak");
      parpde::gemm(a.data(), b.data(), c.data(), n, n, n);
    }
    const double flops = 2.0 * static_cast<double>(n * n * n);
    out.metric("tensor.gemm_peak_gflops",
               flops / (best_ms("bench.gemm_peak") * 1e-3) * 1e-9);
  }
  {
    long l3 = sysconf(_SC_LEVEL3_CACHE_SIZE);
    if (l3 <= 0) l3 = kFallbackL3Bytes;
    const auto bytes = static_cast<std::size_t>(4 * l3);
    std::vector<char> src(bytes, 1);
    std::vector<char> dst(bytes, 0);
    for (int r = 0; r < kCopyReps; ++r) {
      Scope s("bench.copy");
      std::memcpy(dst.data(), src.data(), bytes);
    }
    // STREAM convention: a copy moves its bytes twice (read + write).
    const double gbps =
        2.0 * static_cast<double>(bytes) / (best_ms("bench.copy") * 1e-3) * 1e-9;
    out.metric("tensor.copy_gbps", gbps);
    say("ceiling probes: gemm %lld^3 | copy %.0f MiB per array (L3 %.0f MiB) "
        "%.2f GB/s",
        static_cast<long long>(kGemmSide),
        static_cast<double>(bytes) / (1 << 20),
        static_cast<double>(l3) / (1 << 20), gbps);
  }
}

}  // namespace perfbench
