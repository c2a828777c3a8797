#include "tomography/noise_kernel.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/logging.hh"

namespace ct::tomography {

NoiseKernel::NoiseKernel(uint64_t cycles_per_tick, double jitter_sigma_ticks)
    : cyclesPerTick_(cycles_per_tick), jitterSigma_(jitter_sigma_ticks),
      durationSigma_(jitter_sigma_ticks * std::sqrt(2.0))
{
    CT_ASSERT(cycles_per_tick >= 1, "cycles_per_tick must be >= 1");
    CT_ASSERT(jitter_sigma_ticks >= 0.0, "jitter sigma must be >= 0");
}

double
NoiseKernel::effectiveSigma(double extra_var_ticks2) const
{
    CT_ASSERT(extra_var_ticks2 >= 0.0, "extra variance must be >= 0");
    return std::sqrt(durationSigma_ * durationSigma_ + extra_var_ticks2);
}

int64_t
NoiseKernel::spanOf(double sigma)
{
    return sigma > 0.0 ? int64_t(std::ceil(6.0 * sigma)) : 0;
}

double
NoiseKernel::noiseMass(int64_t j, double sigma)
{
    if (sigma <= 0.0)
        return j == 0 ? 1.0 : 0.0;
    // Integrate the Gaussian over [j - 0.5, j + 0.5] (rounded noise).
    auto phi = [sigma](double x) {
        return 0.5 * std::erfc(-x / (sigma * std::sqrt(2.0)));
    };
    return phi(double(j) + 0.5) - phi(double(j) - 0.5);
}

NoiseKernel::Quantized
NoiseKernel::quantize(double true_cycles, double extra_var_ticks2) const
{
    Quantized q;
    if (true_cycles < 0.0) {
        q.negative = true;
        return q;
    }
    double ratio = true_cycles / double(cyclesPerTick_);
    q.base = int64_t(std::floor(ratio));
    q.frac = ratio - double(q.base);
    q.sigma = effectiveSigma(extra_var_ticks2);
    q.span = spanOf(q.sigma);
    return q;
}

double
NoiseKernel::prob(int64_t observed_ticks, double true_cycles,
                  double extra_var_ticks2) const
{
    return prob(observed_ticks, quantize(true_cycles, extra_var_ticks2));
}

double
NoiseKernel::prob(int64_t observed_ticks, const Quantized &duration) const
{
    if (duration.negative)
        return 0.0;

    // Quantization mass on {base, base + 1}, convolved with the noise.
    double total = 0.0;
    const int64_t quant_ticks[2] = {duration.base, duration.base + 1};
    const double quant_mass[2] = {1.0 - duration.frac, duration.frac};
    for (int q = 0; q < 2; ++q) {
        if (quant_mass[q] <= 0.0)
            continue;
        // An offset that overflows int64_t lies far outside any span;
        // so does one past +-span (span 0 leaves the mass to noiseMass).
        int64_t j;
        if (__builtin_sub_overflow(observed_ticks, quant_ticks[q], &j))
            continue;
        if ((j > duration.span || j < -duration.span) && duration.span > 0)
            continue;
        total += quant_mass[q] * noiseMass(j, duration.sigma);
    }
    return total;
}

std::pair<int64_t, int64_t>
NoiseKernel::window(const Quantized &duration)
{
    if (duration.negative)
        return {0, -1};
    // Each quantization tick reaches +-span (prob() skips the rest; with
    // span 0 noiseMass() is 0 off the tick itself).
    int64_t lo, hi;
    if (__builtin_sub_overflow(duration.base, duration.span, &lo))
        lo = std::numeric_limits<int64_t>::min();
    if (__builtin_add_overflow(duration.base, duration.span, &hi) ||
        __builtin_add_overflow(hi, int64_t(1), &hi))
        hi = std::numeric_limits<int64_t>::max();
    return {lo, hi};
}

double
NoiseKernel::logProb(int64_t observed_ticks, double true_cycles,
                     double extra_var_ticks2) const
{
    double p = prob(observed_ticks, true_cycles, extra_var_ticks2);
    return p > 0.0 ? std::max(std::log(p), logFloor()) : logFloor();
}

std::pair<int64_t, int64_t>
NoiseKernel::support(double true_cycles, double extra_var_ticks2) const
{
    double ratio = std::max(0.0, true_cycles) / double(cyclesPerTick_);
    int64_t base = int64_t(std::floor(ratio));
    int64_t span = spanOf(effectiveSigma(extra_var_ticks2));
    return {base - span, base + 1 + span};
}

double
NoiseKernel::noiseVarianceTicks() const
{
    // Quantization of a duration with a uniform phase has variance
    // frac * (1 - frac) <= 1/4; averaged over durations this is ~1/6.
    return 1.0 / 6.0 + 2.0 * jitterSigma_ * jitterSigma_;
}

} // namespace ct::tomography
