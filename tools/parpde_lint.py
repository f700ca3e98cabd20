#!/usr/bin/env python3
"""parpde-verify: repo-specific communication-correctness and hygiene lint.

A fast, AST-free static pass over src/ that enforces invariants the compiler
cannot (see docs/static-analysis.md for the rule catalogue and how to add a
rule):

  literal-tag      MPI tags must come from the central registry
                   (src/minimpi/tags.hpp); no integer-literal tag arguments
                   in point-to-point calls and no kTag* constants defined
                   outside the registry.
  nondeterminism   kernel/trainer paths that must stay bit-deterministic may
                   not call rand()/srand()/time() or iterate unordered
                   containers.
  span-temporary   telemetry::Span must be a named RAII local; a discarded
                   temporary is destroyed immediately and measures nothing.
  zero-comm        training-phase files (the paper's communication-free
                   training claim) may not contain send/recv/collective
                   calls; pure-compute layers may not include minimpi at all.
  include-hygiene  headers start with #pragma once; no relative-parent or
                   <bits/...> includes; a .cpp's first include is its own
                   header.
  backend-bypass   compute call sites must go through the KernelBackend
                   interface (src/backend/): direct free-function calls to
                   the gemm/conv kernels outside the backend layer (and the
                   kernel implementation files themselves) silently pin the
                   caller to fp32 and skip the backend's telemetry/quantized
                   dispatch.
  unbounded-halo-recv
                   inference-phase files may not block forever on halo
                   traffic: every receive on a halo tag must be the bounded
                   recv_for/recv_bytes_for so a lost neighbour degrades the
                   border instead of hanging the rollout. Blocking receives
                   on the registry's rendezvous tags (field gather/scatter)
                   are allowlisted.
  raw-clock        src/ outside util/ may not call std::chrono clocks
                   directly: all timing must flow through
                   telemetry::now_us()/util::WallTimer so cross-rank trace
                   timestamps share one epoch and stay clock-offset
                   correctable (docs/observability.md).
  raw-rank-block   elastic-runtime files (src/elastic/) may not index
                   partition blocks by the hosting rank: ownership is
                   versioned and migrates on rebalance, so geometry must be
                   derived from the *task* id via the Assignment map —
                   block_of_rank(comm.rank()) silently re-freezes the
                   pre-elastic task==rank identity and breaks adoption.
  serve-steady-alloc
                   the serving layer (src/serve/) promises zero heap
                   allocations per request: allocation primitives (new,
                   make_unique/shared, resize/reserve/push_back/...,
                   std::to_string) are banned outside regions bracketed by
                   `// serve-lint: setup-begin` / `setup-end` comments
                   (construction, calibration, session open).
  lock-held-comm   no blocking send/recv/recv_for/collective while a
                   lock_guard/unique_lock/scoped_lock is live in an enclosing
                   scope: a peer blocked on the same mutex can never complete
                   the matching operation, so one adversarial schedule turns
                   the call into a deadlock (parpde-mc explores exactly those
                   schedules; this rule catches the pattern statically).

Usage:
  tools/parpde_lint.py [--root DIR]   lint the tree (exit 1 on violations)
  tools/parpde_lint.py --self-test    seed one violation per rule in a temp
                                      tree and assert each is caught
"""

from __future__ import annotations

import argparse
import os
import re
import sys
import tempfile

# --- source sanitizing -------------------------------------------------------

_COMMENT_OR_STRING = re.compile(
    r"""
      //[^\n]*            # line comment
    | /\*.*?\*/           # block comment
    | "(?:\\.|[^"\\\n])*" # string literal
    | '(?:\\.|[^'\\\n])*' # char literal
    """,
    re.VERBOSE | re.DOTALL,
)


_COMMENT_ONLY = re.compile(r"//[^\n]*|/\*.*?\*/", re.DOTALL)


def _blank(m: re.Match) -> str:
    return "".join(c if c == "\n" else " " for c in m.group(0))


def sanitize(text: str) -> str:
    """Replaces comments and string/char literals with spaces, preserving
    offsets and line structure so regex hits map back to real code."""
    return _COMMENT_OR_STRING.sub(_blank, text)


def sanitize_comments(text: str) -> str:
    """Blanks comments but keeps string literals — include directives carry
    their path as a string literal, so include rules scan this view."""
    return _COMMENT_ONLY.sub(_blank, text)


def line_of(text: str, offset: int) -> int:
    return text.count("\n", 0, offset) + 1


class Violation:
    def __init__(self, rule: str, path: str, line: int, message: str):
        self.rule = rule
        self.path = path
        self.line = line
        self.message = message

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


# --- rule: literal-tag -------------------------------------------------------

_COMM_CALL = re.compile(
    r"\.\s*(send_value|send_bytes|isend|send|irecv|recv_value|recv_bytes"
    r"|recv|probe)\s*(?:<[^<>()]*>)?\s*\("
)
_INT_LITERAL = re.compile(r"[+-]?\d+")
_TAG_CONSTANT = re.compile(r"\bkTag\w*\s*=\s*(?:\(?\s*)?[+-]?\d")

TAG_REGISTRY = os.path.join("src", "minimpi", "tags.hpp")


def split_args(code: str, open_paren: int, max_args: int = 4):
    """Splits the argument list starting at code[open_paren] == '(' into
    top-level arguments. Returns a list of (text, offset) pairs."""
    args = []
    depth = 0
    start = open_paren + 1
    i = open_paren
    while i < len(code):
        c = code[i]
        if c in "([{":
            depth += 1
        elif c in ")]}":
            depth -= 1
            if depth == 0:
                args.append((code[start:i], start))
                return args
        elif c == "," and depth == 1:
            args.append((code[start:i], start))
            start = i + 1
            if len(args) >= max_args:
                return args
        i += 1
    return args


def rule_literal_tag(rel: str, code: str, out: list):
    if rel == TAG_REGISTRY.replace(os.sep, "/"):
        return
    for m in _COMM_CALL.finditer(code):
        open_paren = m.end() - 1
        args = split_args(code, open_paren)
        if len(args) < 2:
            continue
        tag_text, tag_offset = args[1]
        if _INT_LITERAL.fullmatch(tag_text.strip()):
            out.append(
                Violation(
                    "literal-tag",
                    rel,
                    line_of(code, tag_offset),
                    f"integer-literal tag {tag_text.strip()} in "
                    f".{m.group(1)}() — use a named range from "
                    "minimpi/tags.hpp",
                )
            )
    for m in _TAG_CONSTANT.finditer(code):
        out.append(
            Violation(
                "literal-tag",
                rel,
                line_of(code, m.start()),
                "tag constant defined outside the central registry "
                "minimpi/tags.hpp",
            )
        )


# --- rule: nondeterminism ----------------------------------------------------

DETERMINISTIC_DIRS = (
    "src/tensor/",
    "src/backend/",
    "src/nn/",
    "src/core/",
    "src/domain/",
    "src/euler/",
    "src/data/",
)

_NONDET_PATTERNS = (
    (re.compile(r"\b(?:std::)?s?rand\s*\("), "rand()/srand()"),
    (re.compile(r"\b(?:std::)?time\s*\("), "time()"),
    (
        re.compile(r"\bstd::unordered_(?:multi)?(?:map|set)\b"),
        "unordered container (iteration order is nondeterministic)",
    ),
    (re.compile(r"\bstd::random_device\b"), "std::random_device"),
)


def rule_nondeterminism(rel: str, code: str, out: list):
    if not rel.startswith(DETERMINISTIC_DIRS):
        return
    for pattern, what in _NONDET_PATTERNS:
        for m in pattern.finditer(code):
            out.append(
                Violation(
                    "nondeterminism",
                    rel,
                    line_of(code, m.start()),
                    f"{what} in a bit-deterministic path — kernels and "
                    "trainers must produce identical results at any "
                    "rank/thread count",
                )
            )


# --- rule: span-temporary ----------------------------------------------------

_SPAN_TEMPORARY = re.compile(r"\btelemetry::Span\s*\(")


def rule_span_temporary(rel: str, code: str, out: list):
    if rel.startswith("src/util/telemetry."):
        return
    for m in _SPAN_TEMPORARY.finditer(code):
        out.append(
            Violation(
                "span-temporary",
                rel,
                line_of(code, m.start()),
                "telemetry::Span temporary is destroyed immediately and "
                "records a zero-length span — bind it to a named local",
            )
        )


# --- rule: zero-comm ---------------------------------------------------------

# Files implementing the paper's communication-free training phase: any
# send/recv here would silently break the headline zero-comm claim.
TRAINING_PHASE_FILES = (
    "src/core/trainer.cpp",
    "src/core/trainer.hpp",
    "src/core/parallel_trainer.cpp",
    "src/core/parallel_trainer.hpp",
)
# Pure-compute layers: may not even include the message-passing substrate.
COMPUTE_ONLY_DIRS = ("src/nn/", "src/tensor/", "src/backend/", "src/data/")

_COMM_USE = re.compile(
    r"(\.\s*(?:send_value|send_bytes|isend|send|irecv|recv_value|recv_bytes"
    r"|recv)\s*[<(])|(\b(?:allreduce|allgather|bcast|reduce|sendrecv)\s*<)"
)
_MINIMPI_INCLUDE = re.compile(r'#\s*include\s+"minimpi/')


def rule_zero_comm(rel: str, code: str, code_includes: str, out: list):
    compute_only = rel.startswith(COMPUTE_ONLY_DIRS)
    if rel in TRAINING_PHASE_FILES or compute_only:
        for m in _COMM_USE.finditer(code):
            out.append(
                Violation(
                    "zero-comm",
                    rel,
                    line_of(code, m.start()),
                    "message-passing call in a training-phase/compute file — "
                    "the paper's scheme trains without communication "
                    "(ROADMAP north-star invariant)",
                )
            )
    if compute_only:
        for m in _MINIMPI_INCLUDE.finditer(code_includes):
            out.append(
                Violation(
                    "zero-comm",
                    rel,
                    line_of(code, m.start()),
                    "minimpi include in a pure-compute layer",
                )
            )


# --- rule: unbounded-halo-recv -----------------------------------------------

# Files on the inference-time communication path. A lost neighbour must
# degrade the border (docs/robustness.md), so these files may only use the
# bounded receives on halo traffic.
INFERENCE_PHASE_FILES = (
    "src/domain/exchange.cpp",
    "src/core/inference.cpp",
)
# Registry tags whose owner implements a rendezvous with a live root (full
# field gather/scatter); blocking on them is the intended protocol.
ALLOWED_BLOCKING_TAGS = ("kFieldGather", "kFieldScatter")

# Matches the unbounded receive family only: the bounded recv_for /
# recv_bytes_for calls fail the `\s*(?:<...>)?\s*\(` tail after the name.
_UNBOUNDED_RECV = re.compile(
    r"\.\s*(recv_value|recv_bytes|recv|irecv)\s*(?:<[^<>()]*>)?\s*\("
)


def rule_unbounded_halo_recv(rel: str, code: str, out: list):
    if rel not in INFERENCE_PHASE_FILES:
        return
    for m in _UNBOUNDED_RECV.finditer(code):
        args = split_args(code, m.end() - 1)
        if len(args) >= 2 and any(
            tag in args[1][0] for tag in ALLOWED_BLOCKING_TAGS
        ):
            continue
        out.append(
            Violation(
                "unbounded-halo-recv",
                rel,
                line_of(code, m.start()),
                f"unbounded .{m.group(1)}() in an inference-phase file — a "
                "dead neighbour would hang the rollout forever; use "
                "recv_for/recv_bytes_for with a timeout and degrade the "
                "border (docs/robustness.md)",
            )
        )


# --- rule: raw-clock ---------------------------------------------------------

# Timestamps must share the telemetry epoch (telemetry::now_us(), offset by
# the clock-sync handshake at trace-write time). A raw steady_clock::now()
# outside util/ produces spans/timers that cannot be aligned across ranks.
RAW_CLOCK_EXEMPT_PREFIX = "src/util/"

_RAW_CLOCK = re.compile(
    r"\b(steady_clock|high_resolution_clock|system_clock)\s*::\s*now\s*\("
)


def rule_raw_clock(rel: str, code: str, out: list):
    if not rel.startswith("src/") or rel.startswith(RAW_CLOCK_EXEMPT_PREFIX):
        return
    for m in _RAW_CLOCK.finditer(code):
        out.append(
            Violation(
                "raw-clock",
                rel,
                line_of(code, m.start()),
                f"direct {m.group(1)}::now() outside src/util/ — use "
                "telemetry::now_us() or util::WallTimer so timestamps stay "
                "on the rank-aligned trace epoch (docs/observability.md)",
            )
        )


# --- rule: backend-bypass ----------------------------------------------------

# Files allowed to name the raw kernels: the backend layer itself plus the
# kernel implementation/declaration files it wraps. The banded conv lowering
# (conv2d_forward_bands / conv2d_backward_bands) is callable only from these
# too: everything else reaches it through a KernelBackend.
BACKEND_EXEMPT_PREFIXES = (
    "src/backend/",
    "src/tensor/gemm.",
    "src/tensor/im2col.",
    "src/nn/conv_ops.",
)

# Free-function (or namespace-qualified) calls only: the lookbehind rejects
# `.gemm(` / `->gemm(` member calls, which are exactly the KernelBackend
# interface invocations the rule wants call sites to use.
_BACKEND_KERNEL_CALL = re.compile(
    r"(?<![\w.>])"
    r"(gemm|gemm_acc|gemm_at|gemm_bt_acc|gemm_bt_rows_acc|gemm_rows"
    r"|conv2d_forward"
    r"|conv2d_forward_batched"
    r"|conv2d_backward_data|conv2d_backward_weights|conv2d_backward_batched"
    r"|conv2d_forward_bands|conv2d_backward_bands)"
    r"\s*\("
)


def rule_backend_bypass(rel: str, code: str, out: list):
    if not rel.startswith("src/") or rel.startswith(BACKEND_EXEMPT_PREFIXES):
        return
    for m in _BACKEND_KERNEL_CALL.finditer(code):
        out.append(
            Violation(
                "backend-bypass",
                rel,
                line_of(code, m.start()),
                f"direct {m.group(1)}() call bypasses the KernelBackend "
                "dispatch — route it through backend::blocked_f32() / the "
                "plan's backend so int8 and telemetry keep working",
            )
        )


# --- rule: raw-rank-block ----------------------------------------------------

# The elastic runtime decouples subdomain tasks from ranks (the tentpole of
# the self-healing design): every partition lookup must be keyed by a task id
# or task coordinates from the Assignment map. A `block_of_rank(rank)` /
# `block_of_rank(comm.rank())` in src/elastic/ quietly reintroduces the
# implicit (cx, cy) == rank identity and produces wrong geometry the moment
# one task migrates.
ELASTIC_PHASE_PREFIX = "src/elastic/"

_BLOCK_OF_RANK = re.compile(r"\bblock_of_rank\s*\(")
_RANK_VALUE = re.compile(r"\.\s*rank\s*\(|\brank\b")


def rule_raw_rank_block(rel: str, code: str, out: list):
    if not rel.startswith(ELASTIC_PHASE_PREFIX):
        return
    for m in _BLOCK_OF_RANK.finditer(code):
        args = split_args(code, m.end() - 1)
        if not args or not _RANK_VALUE.search(args[0][0]):
            continue
        out.append(
            Violation(
                "raw-rank-block",
                rel,
                line_of(code, m.start()),
                "partition block indexed by the hosting rank in elastic "
                "code — ownership migrates on rebalance; derive geometry "
                "from the task id via the Assignment map "
                "(elastic/assignment.hpp)",
            )
        )


# --- rule: lock-held-comm ----------------------------------------------------

# The transport layer itself (mailbox/collectives implement the blocking
# operations under their own mutexes) and util/ (no communicator access) own
# their locking discipline; everywhere else, holding a lock across a blocking
# communication is a deadlock waiting for the right schedule.
LOCK_COMM_EXEMPT_PREFIXES = ("src/minimpi/", "src/util/", "src/verify/")

_LOCK_DECL = re.compile(
    r"\b(?:std::)?(?:lock_guard|unique_lock|scoped_lock)\s*"
    r"(?:<[^<>;]*>)?\s+(\w+)\s*[({]"
)
_LOCK_RELEASE = re.compile(r"\b(\w+)\s*\.\s*unlock\s*\(")
# Blocking operations only: member sends/receives (bounded recv_for included —
# 200ms under a contended lock is still a stall the pool can observe) and the
# free-function collectives, every one a rendezvous.
_LOCKED_COMM_CALL = re.compile(
    r"\.\s*(send_value|send_bytes|send|recv_value|recv_bytes_for|recv_bytes"
    r"|recv_for|recv)\s*(?:<[^<>()]*>)?\s*\("
    r"|\b(allreduce|allgather|bcast|reduce|sendrecv|barrier)\s*"
    r"(?:<[^<>()]*>)?\s*\("
)


def rule_lock_held_comm(rel: str, code: str, out: list):
    if not rel.startswith("src/") or rel.startswith(LOCK_COMM_EXEMPT_PREFIXES):
        return
    events = []
    for i, ch in enumerate(code):
        if ch == "{":
            events.append((i, "open", None))
        elif ch == "}":
            events.append((i, "close", None))
    for m in _LOCK_DECL.finditer(code):
        events.append((m.start(), "lock", m.group(1)))
    for m in _LOCK_RELEASE.finditer(code):
        events.append((m.start(), "release", m.group(1)))
    for m in _LOCKED_COMM_CALL.finditer(code):
        events.append((m.start(), "comm", m.group(1) or m.group(2)))
    events.sort(key=lambda e: e[0])

    depth = 0
    live = []  # (brace depth at declaration, variable name)
    for off, kind, name in events:
        if kind == "open":
            depth += 1
        elif kind == "close":
            depth -= 1
            live = [(d, n) for d, n in live if d <= depth]
        elif kind == "lock":
            live.append((depth, name))
        elif kind == "release":
            live = [(d, n) for d, n in live if n != name]
        elif kind == "comm" and live:
            out.append(
                Violation(
                    "lock-held-comm",
                    rel,
                    line_of(code, off),
                    f"blocking {name}() while '{live[-1][1]}' is held — a "
                    "schedule where the peer needs the same lock to reach "
                    "its matching call deadlocks; release the lock before "
                    "communicating (parpde-mc hunts exactly these schedules)",
                )
            )


# --- rule: serve-steady-alloc ------------------------------------------------

# The serving layer's request path promises zero heap allocations per request
# (docs/serving.md; enforced dynamically by the counting-allocator test in
# tests/test_serve.cpp). This rule keeps the promise visible in review:
# allocation primitives are banned in src/serve/ except inside regions
# bracketed by `// serve-lint: setup-begin` ... `// serve-lint: setup-end`
# (construction, calibration, session open — the paths that are allowed to
# size buffers once).
SERVE_PREFIX = "src/serve/"

_SERVE_SETUP_BEGIN = re.compile(r"//\s*serve-lint:\s*setup-begin")
_SERVE_SETUP_END = re.compile(r"//\s*serve-lint:\s*setup-end")
_SERVE_ALLOC = re.compile(
    r"\bnew\b"
    r"|\bmake_(?:unique|shared)\s*<"
    r"|\.\s*(?:resize|reserve|push_back|emplace_back|assign|insert|append)"
    r"\s*\("
    r"|\bstd::to_string\s*\("
)


def rule_serve_steady_alloc(rel: str, code: str, raw: str, out: list):
    if not rel.startswith(SERVE_PREFIX):
        return
    begins = [m.start() for m in _SERVE_SETUP_BEGIN.finditer(raw)]
    ends = [m.start() for m in _SERVE_SETUP_END.finditer(raw)]
    if len(begins) != len(ends) or any(b > e for b, e in zip(begins, ends)):
        out.append(
            Violation(
                "serve-steady-alloc",
                rel,
                1,
                "unbalanced serve-lint setup-begin/setup-end markers",
            )
        )
        return
    regions = list(zip(begins, ends))
    for m in _SERVE_ALLOC.finditer(code):
        if any(b <= m.start() < e for b, e in regions):
            continue
        out.append(
            Violation(
                "serve-steady-alloc",
                rel,
                line_of(code, m.start()),
                "heap allocation on a serving steady-state path — the "
                "per-request contract is zero allocations (pre-size in a "
                "`// serve-lint: setup-begin` region instead; "
                "docs/serving.md)",
            )
        )


# --- rule: include-hygiene ---------------------------------------------------

_INCLUDE = re.compile(r'#\s*include\s+(["<][^">]+[">])')


def rule_include_hygiene(rel: str, code_includes: str, raw: str, out: list):
    code = code_includes
    if rel.endswith((".hpp", ".h")):
        for line in raw.splitlines():
            stripped = line.strip()
            if not stripped or stripped.startswith(("//", "/*", "*")):
                continue
            if stripped != "#pragma once":
                out.append(
                    Violation(
                        "include-hygiene",
                        rel,
                        1,
                        "header must open with #pragma once before any code",
                    )
                )
            break
    includes = list(_INCLUDE.finditer(code))
    for m in includes:
        target = m.group(1)
        if target.startswith('"../'):
            out.append(
                Violation(
                    "include-hygiene",
                    rel,
                    line_of(code, m.start()),
                    "relative-parent include — include project headers by "
                    "their src/-rooted path",
                )
            )
        if target.startswith("<bits/"):
            out.append(
                Violation(
                    "include-hygiene",
                    rel,
                    line_of(code, m.start()),
                    "non-portable <bits/...> include",
                )
            )
    if rel.endswith(".cpp") and includes:
        own = rel[len("src/"):-len(".cpp")] + ".hpp"
        first = includes[0].group(1)
        if first.strip('"') != own and os.path.basename(own) == os.path.basename(
            first.strip('"<>')
        ):
            out.append(
                Violation(
                    "include-hygiene",
                    rel,
                    line_of(code, includes[0].start()),
                    f'first include should be the matching header "{own}"',
                )
            )


# --- driver ------------------------------------------------------------------

SOURCE_EXTENSIONS = (".hpp", ".h", ".cpp")


def lint_file(root: str, rel: str) -> list:
    path = os.path.join(root, rel)
    with open(path, "r", encoding="utf-8", errors="replace") as f:
        raw = f.read()
    code = sanitize(raw)
    code_includes = sanitize_comments(raw)
    rel_posix = rel.replace(os.sep, "/")
    out: list = []
    rule_literal_tag(rel_posix, code, out)
    rule_nondeterminism(rel_posix, code, out)
    rule_span_temporary(rel_posix, code, out)
    rule_zero_comm(rel_posix, code, code_includes, out)
    rule_unbounded_halo_recv(rel_posix, code, out)
    rule_raw_clock(rel_posix, code, out)
    rule_backend_bypass(rel_posix, code, out)
    rule_raw_rank_block(rel_posix, code, out)
    rule_lock_held_comm(rel_posix, code, out)
    rule_serve_steady_alloc(rel_posix, code, raw, out)
    rule_include_hygiene(rel_posix, code_includes, raw, out)
    return out


def lint_tree(root: str) -> list:
    violations = []
    src = os.path.join(root, "src")
    for dirpath, _, filenames in os.walk(src):
        for name in sorted(filenames):
            if not name.endswith(SOURCE_EXTENSIONS):
                continue
            rel = os.path.relpath(os.path.join(dirpath, name), root)
            violations.extend(lint_file(root, rel))
    return violations


# --- self-test ---------------------------------------------------------------

SEEDED_FILES = {
    # literal-tag: raw tag argument and a stray registry constant.
    "src/core/bad_tags.cpp": (
        '#include "core/bad_tags.hpp"\n'
        "constexpr int kTagRogue = 9000;\n"
        "void f(parpde::mpi::Communicator& comm) {\n"
        "  comm.send<float>(1, 4242, data);\n"
        "  comm.recv<float>(0, 17);\n"
        "}\n"
    ),
    # nondeterminism: rand + unordered_map in a kernel path.
    "src/tensor/bad_rng.cpp": (
        '#include "tensor/bad_rng.hpp"\n'
        "#include <unordered_map>\n"
        "int f() {\n"
        "  std::unordered_map<int, int> m;\n"
        "  return rand() + static_cast<int>(time(nullptr));\n"
        "}\n"
    ),
    # span-temporary: discarded RAII span.
    "src/domain/bad_span.cpp": (
        '#include "domain/bad_span.hpp"\n'
        "void f() {\n"
        '  telemetry::Span("halo.exchange", "comm");\n'
        "}\n"
    ),
    # zero-comm: a send inside the training phase and a minimpi include in nn.
    "src/core/parallel_trainer.cpp": (
        '#include "core/parallel_trainer.hpp"\n'
        "void g(parpde::mpi::Communicator& comm) {\n"
        "  comm.send<float>(0, parpde::mpi::tags::kHalo.base, w);\n"
        "}\n"
    ),
    "src/nn/bad_layer.cpp": (
        '#include "nn/bad_layer.hpp"\n'
        '#include "minimpi/communicator.hpp"\n'
        "void h() {}\n"
    ),
    # unbounded-halo-recv: one blocking halo receive (bad) next to an
    # allowlisted gather receive and a bounded recv_for (both fine).
    "src/core/inference.cpp": (
        '#include "core/inference.hpp"\n'
        "void f(parpde::mpi::Communicator& comm) {\n"
        "  auto bad = comm.recv<float>(1, parpde::mpi::tags::kHalo.base);\n"
        "  auto ok1 = comm.recv<float>(0, parpde::mpi::tags::kFieldGather.base);\n"
        "  std::vector<float> out;\n"
        "  comm.recv_for<float>(1, parpde::mpi::tags::kHalo.base,\n"
        "                       std::chrono::milliseconds(10), &out);\n"
        "}\n"
    ),
    # backend-bypass: direct kernel calls outside the backend layer (one
    # bare, one namespace-qualified, one into the banded lowering) next to a
    # legal member-call dispatch.
    "src/core/bad_bypass.cpp": (
        '#include "core/bad_bypass.hpp"\n'
        "void f() {\n"
        "  gemm(a, b, c, m, n, k);\n"
        "  parpde::nn::conv2d_forward_batched(x, w, bias, pad, y, ws);\n"
        "  nn::conv2d_backward_bands(x, dy, n, g, w, co, dx, dw, db, ws);\n"
        "  parpde::backend::blocked_f32().gemm(a, b, c, m, n, k);  // fine\n"
        "}\n"
    ),
    # backend layer itself may name the raw kernels.
    "src/backend/ok_kernels.cpp": (
        '#include "backend/ok_kernels.hpp"\n'
        "void g() {\n"
        "  gemm(a, b, c, m, n, k);\n"
        "  conv2d_backward_weights(x, gy, pad, gw, ws);\n"
        "  nn::conv2d_forward_bands(x, n, g, w, co, b, f, s, y, ws);\n"
        "}\n"
    ),
    # raw-clock: two raw chrono clocks outside util/ (each flagged) next to
    # the sanctioned telemetry::now_us() call (not flagged).
    "src/core/bad_clock.cpp": (
        '#include "core/bad_clock.hpp"\n'
        "#include <chrono>\n"
        "long f() {\n"
        "  auto t0 = std::chrono::steady_clock::now();\n"
        "  auto t1 = std::chrono::system_clock::now();\n"
        "  return telemetry::now_us();\n"
        "}\n"
    ),
    # util/ owns the epoch, so it may touch the raw clock.
    "src/util/ok_clock.cpp": (
        '#include "util/ok_clock.hpp"\n'
        "#include <chrono>\n"
        "long g() {\n"
        "  return std::chrono::steady_clock::now().time_since_epoch().count();\n"
        "}\n"
    ),
    # lock-held-comm: a send under lock_guard and a collective under
    # unique_lock (both flagged) next to an unlock-before-recv and a
    # scope-closed lock (both fine).
    "src/domain/bad_lock_comm.cpp": (
        '#include "domain/bad_lock_comm.hpp"\n'
        "void f(parpde::mpi::Communicator& comm) {\n"
        "  std::lock_guard<std::mutex> lock(mu);\n"
        "  comm.send<float>(1, parpde::mpi::tags::kHalo.base, data);\n"
        "}\n"
        "void g(parpde::mpi::Communicator& comm) {\n"
        "  std::unique_lock<std::mutex> lock(mu);\n"
        "  lock.unlock();\n"
        "  auto v = comm.recv<float>(0, parpde::mpi::tags::kHalo.base);\n"
        "}\n"
        "void h(parpde::mpi::Communicator& comm) {\n"
        "  {\n"
        "    std::scoped_lock guard(mu);\n"
        "    counter += 1;\n"
        "  }\n"
        "  mpi::barrier(comm);\n"
        "}\n"
        "void k(parpde::mpi::Communicator& comm) {\n"
        "  std::unique_lock<std::mutex> lock(mu);\n"
        "  mpi::barrier(comm);\n"
        "}\n"
    ),
    # raw-rank-block: two rank-keyed block lookups in elastic code (flagged)
    # next to a task-coordinate lookup and a task-id lookup (both fine).
    "src/elastic/bad_rank_block.cpp": (
        '#include "elastic/bad_rank_block.hpp"\n'
        "void f(parpde::mpi::Communicator& comm,\n"
        "       const parpde::domain::Partition& partition, int rank) {\n"
        "  auto bad1 = partition.block_of_rank(comm.rank());\n"
        "  auto bad2 = partition.block_of_rank(rank);\n"
        "  auto ok1 = partition.block(ts.cx, ts.cy);\n"
        "  auto ok2 = partition.block_of_rank(task);\n"
        "}\n"
    ),
    # the classic engines keep the task == rank identity on purpose.
    "src/core/ok_rank_block.cpp": (
        '#include "core/ok_rank_block.hpp"\n'
        "void g(parpde::mpi::Communicator& comm,\n"
        "       const parpde::domain::Partition& partition) {\n"
        "  auto block = partition.block_of_rank(comm.rank());\n"
        "}\n"
    ),
    # serve-steady-alloc: a push_back and a bare new on steady-state serving
    # paths (both flagged) next to a resize inside the marked setup region
    # (fine) and an alloc mention in a comment (fine).
    "src/serve/bad_steady_alloc.cpp": (
        '#include "serve/bad_steady_alloc.hpp"\n'
        "// serve-lint: setup-begin\n"
        "Server::Server() {\n"
        "  sessions_.resize(64);\n"
        "}\n"
        "// serve-lint: setup-end\n"
        "void Server::step() {\n"
        "  // pre-sized: no resize here\n"
        "  pending_.push_back(req);\n"
        "  auto* node = new Request();\n"
        "}\n"
    ),
    # include-hygiene: missing pragma once, parent include, bits include.
    "src/util/bad_header.hpp": (
        "#include <vector>\n"
        '#include "../core/config.hpp"\n'
        "#include <bits/stdc++.h>\n"
    ),
    # clean file: must produce no violations.
    "src/util/clean.cpp": (
        '#include "util/clean.hpp"\n'
        "void ok(parpde::mpi::Communicator& comm) {\n"
        "  telemetry::Span span(\"ok\", \"test\");\n"
        "  comm.send<float>(1, parpde::mpi::tags::kHalo.base, data);\n"
        "  // comm.send<float>(1, 999, data);  <- commented out, no finding\n"
        '  const char* s = "comm.recv<float>(0, 123)";\n'
        "  (void)s;\n"
        "}\n"
    ),
}

EXPECTED = {
    "literal-tag": {"src/core/bad_tags.cpp"},
    "nondeterminism": {"src/tensor/bad_rng.cpp"},
    "span-temporary": {"src/domain/bad_span.cpp"},
    "zero-comm": {"src/core/parallel_trainer.cpp", "src/nn/bad_layer.cpp"},
    "unbounded-halo-recv": {"src/core/inference.cpp"},
    "include-hygiene": {"src/util/bad_header.hpp"},
    "backend-bypass": {"src/core/bad_bypass.cpp"},
    "raw-clock": {"src/core/bad_clock.cpp"},
    "raw-rank-block": {"src/elastic/bad_rank_block.cpp"},
    "lock-held-comm": {"src/domain/bad_lock_comm.cpp"},
    "serve-steady-alloc": {"src/serve/bad_steady_alloc.cpp"},
}


def self_test() -> int:
    with tempfile.TemporaryDirectory(prefix="parpde_lint_selftest_") as tmp:
        for rel, content in SEEDED_FILES.items():
            path = os.path.join(tmp, rel)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w", encoding="utf-8") as f:
                f.write(content)
        violations = lint_tree(tmp)
        by_rule: dict = {}
        for v in violations:
            by_rule.setdefault(v.rule, set()).add(v.path)
        failures = []
        for rule, files in EXPECTED.items():
            missing = files - by_rule.get(rule, set())
            if missing:
                failures.append(f"rule {rule}: seeded violations not caught "
                                f"in {sorted(missing)}")
        flagged_clean = [
            str(v) for v in violations if v.path == "src/util/clean.cpp"
        ]
        if flagged_clean:
            failures.append(f"clean file flagged: {flagged_clean}")
        # The literal-tag seed has 3 findings (two calls + one constant).
        literal = [v for v in violations if v.rule == "literal-tag"]
        if len(literal) != 3:
            failures.append(
                f"literal-tag: expected 3 findings, got {len(literal)}"
            )
        # Exactly the blocking halo receive: the allowlisted gather receive
        # and the bounded recv_for in the same seed must not be flagged.
        unbounded = [
            v for v in violations if v.rule == "unbounded-halo-recv"
        ]
        if len(unbounded) != 1:
            failures.append(
                "unbounded-halo-recv: expected exactly 1 finding, got "
                f"{len(unbounded)}"
            )
        # Exactly the two raw clocks: the telemetry::now_us() call on the
        # same seed and the exempt util/ file must not be flagged.
        raw_clock = [v for v in violations if v.rule == "raw-clock"]
        if len(raw_clock) != 2:
            failures.append(
                f"raw-clock: expected exactly 2 findings, got "
                f"{len(raw_clock)}"
            )
        # Exactly the three direct calls: the member-call dispatch on the
        # same seed and the exempt backend-layer file must not be flagged.
        bypass = [v for v in violations if v.rule == "backend-bypass"]
        if len(bypass) != 3:
            failures.append(
                f"backend-bypass: expected exactly 3 findings, got "
                f"{len(bypass)}"
            )
        # Exactly the two rank-keyed lookups: the task-coordinate and
        # task-id lookups in the same seed and the classic engine file
        # (outside src/elastic/) must not be flagged.
        rank_block = [v for v in violations if v.rule == "raw-rank-block"]
        if len(rank_block) != 2:
            failures.append(
                f"raw-rank-block: expected exactly 2 findings, got "
                f"{len(rank_block)}"
            )
        # Exactly the held-lock send and the held-lock barrier: the
        # unlock-first and closed-scope functions in the same seed are legal.
        locked = [v for v in violations if v.rule == "lock-held-comm"]
        if len(locked) != 2:
            failures.append(
                f"lock-held-comm: expected exactly 2 findings, got "
                f"{len(locked)}"
            )
        # Exactly the push_back and the new: the marked-region resize and the
        # commented mention in the same seed must not be flagged.
        steady = [v for v in violations if v.rule == "serve-steady-alloc"]
        if len(steady) != 2:
            failures.append(
                f"serve-steady-alloc: expected exactly 2 findings, got "
                f"{len(steady)}"
            )
        if failures:
            print("parpde_lint self-test FAILED:", file=sys.stderr)
            for f in failures:
                print(f"  {f}", file=sys.stderr)
            return 1
        print(
            f"parpde_lint self-test passed: {len(violations)} seeded "
            f"violations caught across {len(EXPECTED)} rules"
        )
        return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--root",
        default=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        help="repository root (default: the parent of this script's dir)",
    )
    parser.add_argument(
        "--self-test",
        action="store_true",
        help="verify the linter catches a tree of seeded violations",
    )
    args = parser.parse_args()

    if args.self_test:
        return self_test()

    violations = lint_tree(args.root)
    for v in violations:
        print(v)
    if violations:
        print(
            f"parpde_lint: {len(violations)} violation(s); see "
            "docs/static-analysis.md for the rule catalogue",
            file=sys.stderr,
        )
        return 1
    print("parpde_lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
