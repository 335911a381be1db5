/**
 * @file
 * Runtime CPU-feature detection and kernel-tier dispatch.
 *
 * The state-vector kernels ship in three tiers — the scalar baseline,
 * AVX2, and AVX-512 — compiled with per-function target attributes so
 * one binary carries all of them. The active tier is chosen once per
 * process from CPUID (`best_supported_tier`), and can be overridden:
 *
 *  - `ELV_FORCE_KERNEL=baseline|avx2|avx512` (environment, read once):
 *    CI uses this to exercise every tier on any runner. Forcing a tier
 *    the CPU lacks logs a warning and clamps to the best supported one,
 *    so the override is always safe to set.
 *  - set_forced_tier() / clear_forced_tier() (programmatic, same
 *    clamping): used by the benches and the tier-equivalence tests to
 *    switch tiers mid-process.
 *
 * Every tier computes bit-identical results (see vec_complex.hpp), so
 * switching tiers — across processes, machines, or mid-run — never
 * perturbs scores, rankings, or journal resume.
 */
#pragma once

#include <atomic>
#include <optional>
#include <string>

namespace elv::sim {

/** Vector-kernel tiers, in ascending capability order. */
enum class KernelTier {
    Baseline = 0, ///< scalar loops (always available, always correct)
    AVX2 = 1,     ///< 256-bit kernels (x86 with AVX2)
    AVX512 = 2,   ///< 512-bit kernels (x86 with AVX-512F)
};

/** Printable tier name ("baseline" / "avx2" / "avx512"). */
const char *kernel_tier_name(KernelTier tier);

/** Inverse of kernel_tier_name; nullopt for unknown names. */
std::optional<KernelTier> kernel_tier_from_name(const std::string &name);

/** Best tier this CPU supports (CPUID, detected once). */
KernelTier best_supported_tier();

namespace detail {

/** The effective tier as an int, -1 until first resolved. Relaxed:
 *  tier switches are whole-process test/bench phases, never racing a
 *  kernel for correctness (every tier computes identical results). */
inline constinit std::atomic<int> effective_tier{-1};

/** Resolve the unforced tier (ELV_FORCE_KERNEL, else CPUID) into
 *  effective_tier unless a force got there first; returns the tier. */
int resolve_tier();

} // namespace detail

/**
 * The tier the kernels dispatch on: a programmatic force if set, else
 * the ELV_FORCE_KERNEL override if present, else best_supported_tier().
 * Unsupported requests are clamped with a warning. Resolved once and
 * kept in one atomic, so every kernel dispatch pays one relaxed load.
 */
inline KernelTier
active_tier()
{
    const int tier = detail::effective_tier.load(std::memory_order_relaxed);
    return static_cast<KernelTier>(tier >= 0 ? tier : detail::resolve_tier());
}

/** Force a tier process-wide (clamped to best_supported_tier()). */
void set_forced_tier(KernelTier tier);

/** Drop the programmatic force (env override, if any, re-applies). */
void clear_forced_tier();

} // namespace elv::sim
