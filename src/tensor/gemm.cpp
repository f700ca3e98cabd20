#include "tensor/gemm.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <vector>

#include "util/aligned.hpp"
#include "util/telemetry.hpp"
#include "util/thread_pool.hpp"

namespace parpde {

namespace {

// Micro-tile extents. MR x NR = 96 accumulators pack into 12 ymm (AVX2) or
// 6 zmm (AVX-512) with headroom for the B loads and the A broadcast; the
// micro-kernel is multi-versioned so those ISAs are used even in a baseline
// x86-64 build.
constexpr std::int64_t MR = 6;
constexpr std::int64_t NR = 16;
// Cache-block extents. KC is deliberately small: a direct-B tile sweep
// touches one 4 KiB page per B row per step, so kc is what bounds the live
// dTLB set — kc = 32 keeps it inside the L1 dTLB, which measures ~1.5x
// faster than kc = 256 on the wide conv GEMM shapes (page-walk bound).
// MC is a multiple of MR, NC of NR.
constexpr std::int64_t MC = 120;
constexpr std::int64_t KC = 32;
constexpr std::int64_t NC = 512;

constexpr std::int64_t ceil_div(std::int64_t a, std::int64_t b) {
  return (a + b - 1) / b;
}

// Generic element access for the packing routines: a(i, p) = a[i*rs + p*cs].
// The public kernels only differ in these strides; packing absorbs the
// transposes so a single micro-kernel serves all of them.

// The B operand, either row-major or transposed (stored [n x k]):
//  - row-major (cs == 1): row p starts at data + rows[p], or data + p*rs;
//  - transposed (cs != 1): stored row j starts at data + rows[j], or
//    data + j*cs, and its element p sits (p / seg) * seg_stride + p % seg
//    past that start (seg = k, seg_stride = 0 for a dense row).
// Row tables let a conv read the input at one offset per tap instead of
// building a column matrix; segments skip the gap between output rows.
struct BOperand {
  const float* data = nullptr;
  std::int64_t rs = 0, cs = 1;
  const std::int64_t* rows = nullptr;
  std::int64_t seg = 0, seg_stride = 0;
};

// Packs rows [i0, i0+mc) x cols [p0, p0+kc) of A into MR-tall k-major panels:
// dst[panel][p * MR + r], short edge panels zero-padded. Zero rows contribute
// exact +0 products, so padding never perturbs results.
void pack_a(const float* a, std::int64_t rs, std::int64_t cs, std::int64_t i0,
            std::int64_t mc, std::int64_t p0, std::int64_t kc, float* dst) {
  for (std::int64_t i = 0; i < mc; i += MR) {
    const std::int64_t mr = std::min(MR, mc - i);
    for (std::int64_t p = 0; p < kc; ++p) {
      std::int64_t r = 0;
      for (; r < mr; ++r) {
        dst[p * MR + r] = a[(i0 + i + r) * rs + (p0 + p) * cs];
      }
      for (; r < MR; ++r) dst[p * MR + r] = 0.0f;
    }
    dst += KC * MR;
  }
}

// Packs cols [j0, j0+nc) of kc rows of a row-major B — row p starts at
// b + boff[p] — into NR-wide k-major panels: dst[panel][p * NR + j], short
// edge panels zero-padded. Only ragged right edges take this path; full
// tiles read B in place (see gemm_block).
void pack_b(const float* b, const std::int64_t* boff, std::int64_t kc,
            std::int64_t j0, std::int64_t nc, float* dst) {
  for (std::int64_t j = 0; j < nc; j += NR) {
    const std::int64_t nr = std::min(NR, nc - j);
    for (std::int64_t p = 0; p < kc; ++p) {
      const float* src = b + boff[p] + j0 + j;
      std::int64_t q = 0;
      for (; q < nr; ++q) dst[p * NR + q] = src[q];
      for (; q < NR; ++q) dst[p * NR + q] = 0.0f;
    }
    dst += KC * NR;
  }
}

// MR x NR register tile: acc = Apanel * Bpanel over kc steps (acc is fully
// overwritten). One fixed code path for full and edge tiles (edges are
// zero-padded in the packs), so every C element sees the identical operation
// sequence regardless of where block boundaries fall — the bit-determinism
// contract of this file.
//
// The accumulators are GCC vector-extension values rather than plain arrays:
// letting the auto-vectorizer loop over a float[MR][NR] here produces a
// shuffle-bound SLP kernel an order of magnitude slower than the naive loops.
// With explicit vectors each k step is MR broadcast-FMAs against one B load,
// which is the GotoBLAS inner loop. Vector-extension arithmetic is
// elementwise, so the FLOP order (and thus the result) is unchanged.
//
// target_clones compiles AVX-512/AVX2+FMA versions next to the baseline and
// picks one at load time, so the packed panels are consumed at full SIMD
// width without requiring -march=native for the whole build. Clone choice is
// fixed per machine, so it cannot break thread-count determinism. The
// dispatch runs through an IFUNC resolver during early relocation — before
// the TSan/ASan runtimes initialize — so sanitized builds (tools/check.sh)
// fall back to single-version kernels; only SIMD width changes, not results.
typedef float vNf __attribute__((vector_size(NR * sizeof(float))));

#if defined(__x86_64__) && defined(__GNUC__) && \
    !defined(__SANITIZE_THREAD__) && !defined(__SANITIZE_ADDRESS__)
#define PARPDE_TARGET_CLONES \
  __attribute__((target_clones("arch=x86-64-v4", "arch=x86-64-v3", "default")))
#else
#define PARPDE_TARGET_CLONES
#endif

// Packs rows [p0, p0+kc) x cols [j0, j0+nc) of a transposed B into the
// same NR-wide k-major panels as pack_b. This is the dW GEMM's B
// (gemm_bt_acc, gemm_bt_rows_acc). A strided element gather would bound
// that GEMM, so each NR-wide panel is two 8-column halves built from 8 x 8
// register transposes: load 8 consecutive p of 8 stored rows, transpose,
// store 8 panel rows. Columns past nc load as zero, so a ragged edge panel
// needs no separate path. 8 p that straddle a segment end take two loads
// and a blend; a kc tail below 8, and segments shorter than 8, copy element
// by element. Pure data movement: the panel bytes,
// and so every product, equal an element-wise pack's. The clones matter:
// for baseline x86-64 the 256-bit shuffles split into 128-bit halves and
// the transpose loses to an element-wise gather.
typedef float v8f __attribute__((vector_size(8 * sizeof(float))));
typedef std::int32_t v8i __attribute__((vector_size(8 * sizeof(std::int32_t))));

PARPDE_TARGET_CLONES
void pack_bt(const BOperand& b, std::int64_t p0, std::int64_t kc,
             std::int64_t j0, std::int64_t nc, float* dst) {
  static_assert(NR == 16, "pack_bt builds a panel from two 8-wide halves");
  const std::int64_t kc8 = kc & ~std::int64_t{7};
  for (std::int64_t j = 0; j < nc; j += NR) {
    for (std::int64_t h = 0; h < NR; h += 8) {
      const std::int64_t live = std::clamp<std::int64_t>(nc - j - h, 0, 8);
      const float* src[8];
      for (std::int64_t i = 0; i < live; ++i) {
        const std::int64_t row = j0 + j + h + i;
        src[i] = b.data + (b.rows != nullptr ? b.rows[row] : row * b.cs);
      }
      float* out = dst + h;
      // Element p0 + p of a stored row sits at seg_row * seg_stride + in_seg.
      std::int64_t seg_row = p0 / b.seg, in_seg = p0 % b.seg;
      for (std::int64_t p = 0; p < kc8; p += 8) {
        v8f r[8];
        const std::int64_t off = seg_row * b.seg_stride + in_seg;
        if (in_seg + 8 <= b.seg) {
          for (std::int64_t i = 0; i < 8; ++i) {
            r[i] = v8f{};
            if (i < live) __builtin_memcpy(&r[i], src[i] + off, sizeof(v8f));
          }
        } else if (b.seg >= 8) {
          // The 8 p straddle one segment end: the first `split` come from
          // this segment, the rest from the next one, seg_stride - seg
          // further on. Two loads and a blend; both stay inside the rows,
          // since the next segment exists and is at least seg_stride away.
          const auto split = static_cast<std::int32_t>(b.seg - in_seg);
          const v8i iota = {0, 1, 2, 3, 4, 5, 6, 7};
          const v8i sel = iota + ((iota >= split) & 8);
          const std::int64_t next = off + b.seg_stride - b.seg;
          for (std::int64_t i = 0; i < 8; ++i) {
            r[i] = v8f{};
            if (i < live) {
              v8f here, there;
              __builtin_memcpy(&here, src[i] + off, sizeof(v8f));
              __builtin_memcpy(&there, src[i] + next, sizeof(v8f));
              r[i] = __builtin_shuffle(here, there, sel);
            }
          }
        } else {
          // Segments shorter than 8: gather element by element.
          for (std::int64_t i = 0; i < 8; ++i) r[i] = v8f{};
          std::int64_t sr = seg_row, is = in_seg;
          for (std::int64_t q = 0; q < 8; ++q) {
            for (std::int64_t i = 0; i < live; ++i) {
              r[i][q] = src[i][sr * b.seg_stride + is];
            }
            if (++is == b.seg) {
              is = 0;
              ++sr;
            }
          }
        }
        in_seg += 8;
        while (in_seg >= b.seg) {
          in_seg -= b.seg;
          ++seg_row;
        }
        // Interleave pairs of rows, then pairs of pairs, then 128-bit
        // halves: t[c][i] = r[i][c].
        const v8i lo = {0, 8, 1, 9, 4, 12, 5, 13};
        const v8i hi = {2, 10, 3, 11, 6, 14, 7, 15};
        const v8i lo2 = {0, 1, 8, 9, 4, 5, 12, 13};
        const v8i hi2 = {2, 3, 10, 11, 6, 7, 14, 15};
        const v8i lo4 = {0, 1, 2, 3, 8, 9, 10, 11};
        const v8i hi4 = {4, 5, 6, 7, 12, 13, 14, 15};
        const v8f a0 = __builtin_shuffle(r[0], r[1], lo);
        const v8f a1 = __builtin_shuffle(r[0], r[1], hi);
        const v8f a2 = __builtin_shuffle(r[2], r[3], lo);
        const v8f a3 = __builtin_shuffle(r[2], r[3], hi);
        const v8f a4 = __builtin_shuffle(r[4], r[5], lo);
        const v8f a5 = __builtin_shuffle(r[4], r[5], hi);
        const v8f a6 = __builtin_shuffle(r[6], r[7], lo);
        const v8f a7 = __builtin_shuffle(r[6], r[7], hi);
        const v8f b0 = __builtin_shuffle(a0, a2, lo2);
        const v8f b1 = __builtin_shuffle(a0, a2, hi2);
        const v8f b2 = __builtin_shuffle(a1, a3, lo2);
        const v8f b3 = __builtin_shuffle(a1, a3, hi2);
        const v8f b4 = __builtin_shuffle(a4, a6, lo2);
        const v8f b5 = __builtin_shuffle(a4, a6, hi2);
        const v8f b6 = __builtin_shuffle(a5, a7, lo2);
        const v8f b7 = __builtin_shuffle(a5, a7, hi2);
        const v8f t[8] = {
            __builtin_shuffle(b0, b4, lo4), __builtin_shuffle(b1, b5, lo4),
            __builtin_shuffle(b2, b6, lo4), __builtin_shuffle(b3, b7, lo4),
            __builtin_shuffle(b0, b4, hi4), __builtin_shuffle(b1, b5, hi4),
            __builtin_shuffle(b2, b6, hi4), __builtin_shuffle(b3, b7, hi4)};
        for (std::int64_t c = 0; c < 8; ++c) {
          __builtin_memcpy(out + (p + c) * NR, &t[c], sizeof(v8f));
        }
      }
      for (std::int64_t p = kc8; p < kc; ++p) {
        const std::int64_t off = seg_row * b.seg_stride + in_seg;
        std::int64_t q = 0;
        for (; q < live; ++q) out[p * NR + q] = src[q][off];
        for (; q < 8; ++q) out[p * NR + q] = 0.0f;
        if (++in_seg == b.seg) {
          in_seg = 0;
          ++seg_row;
        }
      }
    }
    dst += KC * NR;
  }
}

// B row p of the tile is read at pb + boff[p]: either a packed NR-wide
// panel (boff[p] = p * NR) or a window straight into the caller's B — a
// row-major matrix (boff[p] = p * row stride) or rows at arbitrary offsets,
// such as the taps of an implicit im2col. Full tiles then skip the B pack
// entirely, which is what makes the skinny-m conv shapes memory-efficient.
PARPDE_TARGET_CLONES
void micro_kernel(std::int64_t kc, const float* __restrict pa,
                  const float* __restrict pb,
                  const std::int64_t* __restrict boff, float* __restrict acc) {
  static_assert(MR == 6, "micro_kernel is unrolled for MR == 6");
  vNf c0{}, c1{}, c2{}, c3{}, c4{}, c5{};
  for (std::int64_t p = 0; p < kc; ++p) {
    vNf b;
    __builtin_memcpy(&b, pb + boff[p], sizeof(b));
    const float* ap = pa + p * MR;
    c0 += ap[0] * b;
    c1 += ap[1] * b;
    c2 += ap[2] * b;
    c3 += ap[3] * b;
    c4 += ap[4] * b;
    c5 += ap[5] * b;
  }
  __builtin_memcpy(acc + 0 * NR, &c0, sizeof(c0));
  __builtin_memcpy(acc + 1 * NR, &c1, sizeof(c1));
  __builtin_memcpy(acc + 2 * NR, &c2, sizeof(c2));
  __builtin_memcpy(acc + 3 * NR, &c3, sizeof(c3));
  __builtin_memcpy(acc + 4 * NR, &c4, sizeof(c4));
  __builtin_memcpy(acc + 5 * NR, &c5, sizeof(c5));
}

// Short-tile variants: a skinny conv GEMM (m = 4 channels) run through the
// 6-row kernel wastes a third of its FMA slots on padded rows, so row counts
// below MR dispatch to a matching kernel. Rows it does compute see the exact
// FLOP sequence of the 6-row kernel (the variant choice depends only on the
// tile geometry), so determinism is unaffected.
PARPDE_TARGET_CLONES
void micro_kernel_4(std::int64_t kc, const float* __restrict pa,
                    const float* __restrict pb,
                    const std::int64_t* __restrict boff,
                    float* __restrict acc) {
  vNf c0{}, c1{}, c2{}, c3{};
  for (std::int64_t p = 0; p < kc; ++p) {
    vNf b;
    __builtin_memcpy(&b, pb + boff[p], sizeof(b));
    const float* ap = pa + p * MR;
    c0 += ap[0] * b;
    c1 += ap[1] * b;
    c2 += ap[2] * b;
    c3 += ap[3] * b;
  }
  __builtin_memcpy(acc + 0 * NR, &c0, sizeof(c0));
  __builtin_memcpy(acc + 1 * NR, &c1, sizeof(c1));
  __builtin_memcpy(acc + 2 * NR, &c2, sizeof(c2));
  __builtin_memcpy(acc + 3 * NR, &c3, sizeof(c3));
}

PARPDE_TARGET_CLONES
void micro_kernel_2(std::int64_t kc, const float* __restrict pa,
                    const float* __restrict pb,
                    const std::int64_t* __restrict boff,
                    float* __restrict acc) {
  vNf c0{}, c1{};
  for (std::int64_t p = 0; p < kc; ++p) {
    vNf b;
    __builtin_memcpy(&b, pb + boff[p], sizeof(b));
    const float* ap = pa + p * MR;
    c0 += ap[0] * b;
    c1 += ap[1] * b;
  }
  __builtin_memcpy(acc + 0 * NR, &c0, sizeof(c0));
  __builtin_memcpy(acc + 1 * NR, &c1, sizeof(c1));
}

// Dispatch on the live row count; acc rows >= the variant's height are left
// untouched and must be masked off by the caller's writeback.
void micro_kernel_mr(std::int64_t mr, std::int64_t kc,
                     const float* __restrict pa, const float* __restrict pb,
                     const std::int64_t* __restrict boff,
                     float* __restrict acc) {
  if (mr > 4) {
    micro_kernel(kc, pa, pb, boff, acc);
  } else if (mr > 2) {
    micro_kernel_4(kc, pa, pb, boff, acc);
  } else {
    micro_kernel_2(kc, pa, pb, boff, acc);
  }
}

// Row offsets of a packed B panel.
constexpr std::array<std::int64_t, KC> kPackedRows = [] {
  std::array<std::int64_t, KC> off{};
  for (std::int64_t p = 0; p < KC; ++p) off[static_cast<std::size_t>(p)] = p * NR;
  return off;
}();

// Per-thread packing workspaces; persistent so steady-state training does no
// allocation in the hot path, 64-byte aligned for clean vector loads.
thread_local util::AlignedVector<float> t_pack_a;
thread_local util::AlignedVector<float> t_pack_b;

// Sequential blocked GEMM on the sub-matrix C[i0:i0+ms, j0:j0+ns] with the
// full k extent (k is never split across threads). GotoBLAS loop order:
// NC columns -> KC depth (packed B) -> MC rows (packed A) -> micro-tiles.
void gemm_block(const float* a, std::int64_t a_rs, std::int64_t a_cs,
                const BOperand& b, float* c, std::int64_t ldc, std::int64_t k,
                bool accumulate, std::int64_t i0, std::int64_t ms,
                std::int64_t j0, std::int64_t ns) {
  t_pack_a.resize(static_cast<std::size_t>(MC * KC));
  t_pack_b.resize(static_cast<std::size_t>(KC * NC));
  float* pa = t_pack_a.data();
  float* pb = t_pack_b.data();
  float acc[MR * NR];

  // Row-major B lets full tiles stream straight from the caller's buffer;
  // only the ragged right-edge panel (nr < NR, unsafe to vector-load past the
  // row end) gets packed. Transposed B always packs, through pack_bt. Row
  // p of a direct B starts at b.data + boff[p].
  const bool direct_b = (b.cs == 1);
  std::int64_t boff[KC];

  for (std::int64_t jc = 0; jc < ns; jc += NC) {
    const std::int64_t nc = std::min(NC, ns - jc);
    const std::int64_t nc_full = direct_b ? (nc / NR) * NR : nc;
    for (std::int64_t pc = 0; pc < k; pc += KC) {
      const std::int64_t kc = std::min(KC, k - pc);
      const bool overwrite = !accumulate && pc == 0;
      if (!direct_b) {
        pack_bt(b, pc, kc, j0 + jc, nc, pb);
      } else {
        for (std::int64_t p = 0; p < kc; ++p) {
          boff[p] = b.rows != nullptr ? b.rows[pc + p] : (pc + p) * b.rs;
        }
        if (nc_full < nc) {
          pack_b(b.data, boff, kc, j0 + jc + nc_full, nc - nc_full, pb);
        }
      }
      for (std::int64_t ic = 0; ic < ms; ic += MC) {
        const std::int64_t mc = std::min(MC, ms - ic);
        pack_a(a, a_rs, a_cs, i0 + ic, mc, pc, kc, pa);
        for (std::int64_t jr = 0; jr < nc;) {
          const std::int64_t nr = std::min(NR, nc - jr);
          const float* bpanel;
          const std::int64_t* brows;
          if (direct_b && jr < nc_full) {
            bpanel = b.data + j0 + jc + jr;
            brows = boff;
          } else {
            bpanel = pb + ((jr - nc_full * direct_b) / NR) * KC * NR;
            brows = kPackedRows.data();
          }
          for (std::int64_t ir = 0; ir < mc; ir += MR) {
            const std::int64_t mr = std::min(MR, mc - ir);
            const float* apanel = pa + (ir / MR) * KC * MR;
            micro_kernel_mr(mr, kc, apanel, bpanel, brows, acc);
            float* ctile = c + (i0 + ic + ir) * ldc + j0 + jc + jr;
            if (nr == NR) {
              // Full-width tile: whole-row vector copy/add. Matters for
              // small-k GEMMs where writeback rivals the kernel body.
              if (overwrite) {
                for (std::int64_t i = 0; i < mr; ++i) {
                  __builtin_memcpy(ctile + i * ldc, acc + i * NR,
                                   NR * sizeof(float));
                }
              } else {
                for (std::int64_t i = 0; i < mr; ++i) {
                  vNf cv, av;
                  __builtin_memcpy(&cv, ctile + i * ldc, sizeof(cv));
                  __builtin_memcpy(&av, acc + i * NR, sizeof(av));
                  cv += av;
                  __builtin_memcpy(ctile + i * ldc, &cv, sizeof(cv));
                }
              }
            } else if (overwrite) {
              for (std::int64_t i = 0; i < mr; ++i) {
                for (std::int64_t j = 0; j < nr; ++j) {
                  ctile[i * ldc + j] = acc[i * NR + j];
                }
              }
            } else {
              for (std::int64_t i = 0; i < mr; ++i) {
                for (std::int64_t j = 0; j < nr; ++j) {
                  ctile[i * ldc + j] += acc[i * NR + j];
                }
              }
            }
          }
          jr += NR;
        }
      }
    }
  }
}

// Threaded entry point: splits C into row/column stripes (multiples of the
// micro-tile so packing stays aligned) and runs gemm_block per stripe on the
// global pool. Only m and n are partitioned — never k — so results are
// bit-identical for any worker count.
void gemm_strided(const float* a, std::int64_t a_rs, std::int64_t a_cs,
                  const BOperand& b, float* c, std::int64_t m, std::int64_t k,
                  std::int64_t n, bool accumulate) {
  // Flop accounting for the run report; references cached once, so the
  // steady-state cost is two relaxed fetch_adds per GEMM call.
  static telemetry::Counter& flops = telemetry::counter("gemm.flops");
  static telemetry::Counter& calls = telemetry::counter("gemm.calls");
  flops.add(static_cast<std::uint64_t>(2 * m * k * n));
  calls.add(1);
  // The tensor-layer GEMM is fp32 on every backend; tag the span so Chrome
  // traces separate it from the int8 conv spans ("conv.int8" in the backend).
  telemetry::Span span("gemm.fp32", "gemm");

  auto& pool = util::ThreadPool::global();
  // Below ~0.5 MFLOP the fork/join overhead dominates; run inline.
  if (pool.workers() == 0 || m * n * k < (std::int64_t{1} << 18)) {
    gemm_block(a, a_rs, a_cs, b, c, n, k, accumulate, 0, m, 0, n);
    return;
  }

  const std::int64_t target = 4 * pool.degree();
  const std::int64_t tiles_n = ceil_div(n, NR);
  const std::int64_t tiles_m = ceil_div(m, MR);
  std::int64_t tn = std::min(tiles_n, target);
  std::int64_t tm = std::min(tiles_m, ceil_div(target, tn));
  const std::int64_t step_n = ceil_div(tiles_n, tn) * NR;
  const std::int64_t step_m = ceil_div(tiles_m, tm) * MR;
  tn = ceil_div(n, step_n);
  tm = ceil_div(m, step_m);

  pool.parallel_for(tn * tm, 1, [&](std::int64_t begin, std::int64_t end) {
    for (std::int64_t t = begin; t < end; ++t) {
      const std::int64_t i0 = (t / tn) * step_m;
      const std::int64_t j0 = (t % tn) * step_n;
      gemm_block(a, a_rs, a_cs, b, c, n, k, accumulate, i0,
                 std::min(step_m, m - i0), j0, std::min(step_n, n - j0));
    }
  });
}

}  // namespace

void gemm(const float* a, const float* b, float* c, std::int64_t m,
          std::int64_t k, std::int64_t n) {
  gemm_strided(a, k, 1, {b, n, 1}, c, m, k, n, /*accumulate=*/false);
}

void gemm_acc(const float* a, const float* b, float* c, std::int64_t m,
              std::int64_t k, std::int64_t n) {
  gemm_strided(a, k, 1, {b, n, 1}, c, m, k, n, /*accumulate=*/true);
}

void gemm_at(const float* a, const float* b, float* c, std::int64_t m,
             std::int64_t k, std::int64_t n) {
  // A stored [k x m]: a(i, p) = a[p*m + i].
  gemm_strided(a, 1, m, {b, n, 1}, c, m, k, n, /*accumulate=*/false);
}

void gemm_rows(const float* a, const float* b, const std::int64_t* b_rows,
               float* c, std::int64_t m, std::int64_t k, std::int64_t n) {
  gemm_strided(a, k, 1, {b, 0, 1, b_rows}, c, m, k, n, /*accumulate=*/false);
}

void gemm_bt_acc(const float* a, const float* b, float* c, std::int64_t m,
                 std::int64_t k, std::int64_t n) {
  // B stored [n x k]: b(p, j) = b[j*k + p].
  gemm_strided(a, k, 1, {b, 1, k, nullptr, k, 0}, c, m, k, n,
               /*accumulate=*/true);
}

void gemm_bt_rows_acc(const float* a, const float* b,
                      const std::int64_t* b_rows, std::int64_t seg,
                      std::int64_t seg_stride, float* c, std::int64_t m,
                      std::int64_t k, std::int64_t n) {
  gemm_strided(a, k, 1, {b, 1, 0, b_rows, seg, seg_stride}, c, m, k, n,
               /*accumulate=*/true);
}

// ---------------------------------------------------------------------------
// Naive reference kernels: the seed repo's original loops, single-threaded.

void gemm_naive(const float* a, const float* b, float* c, std::int64_t m,
                std::int64_t k, std::int64_t n) {
  std::memset(c, 0, static_cast<std::size_t>(m * n) * sizeof(float));
  gemm_naive_acc(a, b, c, m, k, n);
}

void gemm_naive_acc(const float* a, const float* b, float* c, std::int64_t m,
                    std::int64_t k, std::int64_t n) {
  for (std::int64_t i = 0; i < m; ++i) {
    float* crow = c + i * n;
    const float* arow = a + i * k;
    for (std::int64_t p = 0; p < k; ++p) {
      const float av = arow[p];
      if (av == 0.0f) continue;
      const float* brow = b + p * n;
      for (std::int64_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

void gemm_naive_at(const float* a, const float* b, float* c, std::int64_t m,
                   std::int64_t k, std::int64_t n) {
  std::memset(c, 0, static_cast<std::size_t>(m * n) * sizeof(float));
  for (std::int64_t p = 0; p < k; ++p) {
    const float* arow = a + p * m;
    const float* brow = b + p * n;
    for (std::int64_t i = 0; i < m; ++i) {
      const float av = arow[i];
      if (av == 0.0f) continue;
      float* crow = c + i * n;
      for (std::int64_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

void gemm_naive_bt_acc(const float* a, const float* b, float* c,
                       std::int64_t m, std::int64_t k, std::int64_t n) {
  for (std::int64_t i = 0; i < m; ++i) {
    const float* arow = a + i * k;
    float* crow = c + i * n;
    for (std::int64_t j = 0; j < n; ++j) {
      const float* brow = b + j * k;
      float acc = 0.0f;
      for (std::int64_t p = 0; p < k; ++p) acc += arow[p] * brow[p];
      crow[j] += acc;
    }
  }
}

}  // namespace parpde
