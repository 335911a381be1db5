#include "sim/cpu_features.hpp"

#include <cstdlib>

#include "common/logging.hpp"

namespace elv::sim {

namespace {

KernelTier
detect_best()
{
#if defined(__x86_64__) || defined(__i386__)
    if (__builtin_cpu_supports("avx512f"))
        return KernelTier::AVX512;
    if (__builtin_cpu_supports("avx2"))
        return KernelTier::AVX2;
#endif
    return KernelTier::Baseline;
}

KernelTier
clamp_to_supported(KernelTier tier, const char *origin)
{
    const KernelTier best = best_supported_tier();
    if (static_cast<int>(tier) <= static_cast<int>(best))
        return tier;
    elv::warn(std::string(origin) + " requests kernel tier '" +
              kernel_tier_name(tier) + "' but this CPU only supports '" +
              kernel_tier_name(best) + "'; clamping");
    return best;
}

/** ELV_FORCE_KERNEL parsed once; -1 = unset or unrecognized. */
int
env_override()
{
    static const int value = [] {
        const char *env = std::getenv("ELV_FORCE_KERNEL");
        if (!env || !*env)
            return -1;
        const auto tier = kernel_tier_from_name(env);
        if (!tier) {
            elv::warn(std::string("ELV_FORCE_KERNEL='") + env +
                      "' not recognized (baseline/avx2/avx512); "
                      "using CPU detection");
            return -1;
        }
        return static_cast<int>(
            clamp_to_supported(*tier, "ELV_FORCE_KERNEL"));
    }();
    return value;
}

/** The tier without a programmatic force. */
int
unforced_tier()
{
    const int env = env_override();
    return env >= 0 ? env : static_cast<int>(best_supported_tier());
}

} // namespace

int
detail::resolve_tier()
{
    int expected = -1;
    const int tier = unforced_tier();
    // A concurrent set_forced_tier wins: keep what it stored.
    if (effective_tier.compare_exchange_strong(expected, tier,
                                               std::memory_order_relaxed))
        return tier;
    return expected;
}

const char *
kernel_tier_name(KernelTier tier)
{
    switch (tier) {
      case KernelTier::Baseline: return "baseline";
      case KernelTier::AVX2: return "avx2";
      case KernelTier::AVX512: return "avx512";
    }
    return "unknown";
}

std::optional<KernelTier>
kernel_tier_from_name(const std::string &name)
{
    if (name == "baseline" || name == "scalar")
        return KernelTier::Baseline;
    if (name == "avx2")
        return KernelTier::AVX2;
    if (name == "avx512" || name == "avx-512")
        return KernelTier::AVX512;
    return std::nullopt;
}

KernelTier
best_supported_tier()
{
    static const KernelTier best = detect_best();
    return best;
}

void
set_forced_tier(KernelTier tier)
{
    detail::effective_tier.store(
        static_cast<int>(clamp_to_supported(tier, "set_forced_tier")),
        std::memory_order_relaxed);
}

void
clear_forced_tier()
{
    detail::effective_tier.store(unforced_tier(), std::memory_order_relaxed);
}

} // namespace elv::sim
