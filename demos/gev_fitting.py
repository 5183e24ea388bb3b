"""Demonstrates GEV tail modeling and the unknown-rejection rule.

The rejector models the upper tail of the classifier's entropy
distribution on source samples with a generalized extreme value (GEV)
distribution: block maxima of the entropies are fitted by maximum
likelihood, and a target sample is rejected as unknown when the fitted
CDF of its prediction entropy exceeds 0.5, i.e. when the entropy exceeds
the GEV median tau. This script round-trips the
machinery on synthetic draws where the ground truth is known.
"""

import numpy as np

from adagev import evt


def main():
    true = evt.GevParams(l=0.5, s=0.2, c=0.1)
    print(f"ground truth: l={true.l}, s={true.s}, c={true.c}")

    sample = evt.gev_sample(true, 20000, seed=42)
    print(f"drew {sample.size} samples; mean {sample.mean():.4f}, "
          f"max {sample.max():.4f}")

    fitted = evt.fit_gev_mle(sample)
    print(f"MLE fit:      l={fitted.l:.4f}, s={fitted.s:.4f}, c={fitted.c:.4f}")

    # The location parameter always sits at the e^-1 quantile.
    print(f"cdf(l) = {evt.gev_cdf(fitted.l, fitted):.6f} (exactly 1/e = {np.exp(-1.0):.6f})")

    print()
    print("=== block maxima from a raw entropy-like sample ===")
    rng = np.random.default_rng(0)
    raw = rng.beta(2.0, 5.0, size=4000) * np.log(4)  # entropies in [0, ln 4]
    tail = evt.extract_tail(raw, block_size=20)
    print(f"{raw.size} raw values -> {tail.size} block maxima "
          f"(min {tail.min():.3f}, max {tail.max():.3f})")
    gev = evt.fit_gev_mle(tail)
    print(f"tail fit: l={gev.l:.4f}, s={gev.s:.4f}, c={gev.c:.4f}")

    print()
    print("=== the rejection rule: CDF(entropy) > 0.5, i.e. entropy > tau ===")
    tau = evt.rejection_threshold(gev)
    print(f"tau (the GEV median) = {tau:.4f}")
    for h in (0.6, gev.l, 1.0, 1.2):
        verdict = "REJECT (unknown)" if h > tau else "keep (known)"
        print(f"  entropy {h:.3f}: cdf={evt.gev_cdf(h, gev):.3f} -> {verdict}")


if __name__ == "__main__":
    main()
