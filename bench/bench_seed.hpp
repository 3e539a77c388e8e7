// Base-seed override shared by the ablation benches.
//
// Each bench hard-codes a base seed so default runs are reproducible;
// reviewers re-running an experiment with fresh randomness pass
// `--seed N` (or `--seed=N`), or set VFPGA_BENCH_SEED. The override
// replaces only the bench's base — per-configuration offsets stay
// applied on top, so distinct configs keep distinct RNG streams.
#pragma once

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <optional>
#include <string_view>

#include "vfpga/common/types.hpp"

namespace vfpga::bench {

/// Parse a `--threads` operand: a positive decimal/hex/octal integer
/// that fits an unsigned, with no trailing garbage. Returns nullopt for
/// everything else — zero, negatives, "4x", "", overflow — so callers
/// reject bad input instead of silently running with threads=0 (which
/// means "pick for me" downstream and would mask the typo).
[[nodiscard]] inline std::optional<unsigned> parse_thread_count(
    const char* text) {
  if (text == nullptr || *text == '\0') {
    return std::nullopt;
  }
  char* end = nullptr;
  errno = 0;
  const long long value = std::strtoll(text, &end, 0);
  if (errno != 0 || end == text || *end != '\0') {
    return std::nullopt;
  }
  if (value <= 0 || value > 65'536) {
    return std::nullopt;
  }
  return static_cast<unsigned>(value);
}

/// Returns the `--threads N` / `--threads=N` worker-pool request, or 0
/// when absent. Feeds the harness config's `threads` field, whose
/// precedence is env > CLI > hardware: harness::worker_threads applies
/// VFPGA_THREADS after this value, so the environment still wins (CI
/// pins determinism oracles with VFPGA_THREADS=1 regardless of flags).
/// An explicit but invalid operand (zero, negative, garbage) prints a
/// diagnostic and exits 2 — a mistyped thread count must not silently
/// become an auto-sized run.
inline unsigned cli_threads(int argc, char** argv) {
  const char* operand = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      operand = argv[i + 1];
    } else if (std::strncmp(argv[i], "--threads=", 10) == 0) {
      operand = argv[i] + 10;
    }
  }
  if (operand == nullptr) {
    return 0;
  }
  const std::optional<unsigned> threads = parse_thread_count(operand);
  if (!threads.has_value()) {
    std::fprintf(stderr,
                 "error: --threads expects a positive integer "
                 "(1..65536), got \"%s\"\n",
                 operand);
    std::exit(2);
  }
  return *threads;
}

/// The first argument that is neither one of `switches` nor one of
/// `valued` (a flag taking an operand, as `--flag X` or `--flag=X`), or
/// a valued flag whose operand is missing; nullopt when all are known.
[[nodiscard]] inline std::optional<std::string_view> first_unknown_arg(
    int argc, char** argv, std::initializer_list<std::string_view> switches,
    std::initializer_list<std::string_view> valued) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    bool known = false;
    for (const std::string_view s : switches) {
      known = known || arg == s;
    }
    for (const std::string_view v : valued) {
      if (arg == v) {
        if (i + 1 == argc) {
          return arg;  // operand missing
        }
        ++i;
        known = true;
      } else if (arg.size() > v.size() && arg.starts_with(v) &&
                 arg[v.size()] == '=') {
        known = true;
      }
    }
    if (!known) {
      return arg;
    }
  }
  return std::nullopt;
}

/// Reject the command line unless every argument is known (see
/// first_unknown_arg): print the offender and `usage`, exit 2. A
/// misspelt flag such as `--smok` must not silently run the default
/// (full) configuration.
inline void require_known_args(int argc, char** argv,
                               std::initializer_list<std::string_view> switches,
                               std::initializer_list<std::string_view> valued,
                               const char* usage) {
  if (const auto bad = first_unknown_arg(argc, argv, switches, valued)) {
    std::fprintf(stderr, "error: unknown or incomplete argument \"%.*s\"\n",
                 static_cast<int>(bad->size()), bad->data());
    std::fprintf(stderr, "usage: %s %s\n", argc > 0 ? argv[0] : "bench",
                 usage);
    std::exit(2);
  }
}

/// Returns the base seed for a bench run: `--seed` flag, then the
/// VFPGA_BENCH_SEED environment variable, then `default_seed`.
inline u64 base_seed(u64 default_seed, int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      return static_cast<u64>(std::strtoull(argv[i + 1], nullptr, 0));
    }
    if (std::strncmp(argv[i], "--seed=", 7) == 0) {
      return static_cast<u64>(std::strtoull(argv[i] + 7, nullptr, 0));
    }
  }
  if (const char* env = std::getenv("VFPGA_BENCH_SEED")) {
    return static_cast<u64>(std::strtoull(env, nullptr, 0));
  }
  return default_seed;
}

}  // namespace vfpga::bench
