// Runtime SIMD dispatch for the batch codec kernels.
//
// The batch kernels in bdi/fpc/e2mc.cpp have AVX2 variants (simd_avx2.cpp,
// compiled with -mavx2 in an otherwise baseline-ISA build). Which variant a
// kernel runs is decided here, once per process: probe CPUID for AVX2
// (`__builtin_cpu_supports`), honor the `SLC_FORCE_SCALAR` environment
// variable (any value except "0" pins the scalar kernels — the CI leg that
// keeps both paths green), and expose a programmatic override so tests and
// benches can measure scalar-vs-SIMD in one process without re-exec.
//
// The scalar kernels are always compiled; both variants must be
// byte-identical to the per-block reference encoders for any input (pinned
// by tests/test_batch_kernels.cpp under both dispatch settings). Hosts or
// builds without AVX2 simply never leave Level::kScalar — there is no
// correctness fallback to get wrong, only a speed difference.
#pragma once

namespace slc::simd {

/// Kernel variant the dispatcher selected. kAvx2 implies the binary carries
/// the AVX2 kernels *and* the host CPU supports them.
enum class Level { kScalar, kAvx2 };

/// The variant batch kernels should run right now: the cached probe result,
/// downgraded to kScalar while a force_scalar(true) override is in effect.
Level active_level();

/// Human-readable variant name ("scalar" / "avx2"); used in BenchReport
/// metadata so perf-gate diffs are interpretable across hosts.
const char* level_name(Level level);
const char* active_level_name();

/// True when the AVX2 kernels were compiled into this binary (x86-64 build
/// with a compiler that accepts -mavx2), independent of the host CPU.
bool avx2_compiled();

/// True when the host CPU reports AVX2, independent of overrides. Always
/// false in builds without the AVX2 kernels (nothing probes CPUID there).
bool avx2_supported();

/// True when SLC_FORCE_SCALAR was set (and not "0") at first probe.
bool force_scalar_env();

/// Process-wide programmatic override: force_scalar(true) pins
/// active_level() to kScalar; force_scalar(false) returns to the probed
/// default. Thread-safe; intended for tests and the three-way bench rows.
void force_scalar(bool on);

}  // namespace slc::simd
