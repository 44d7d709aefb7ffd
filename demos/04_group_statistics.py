"""Welch's t and Cohen's d on small samples, from scratch.

The p-value route goes through the regularized incomplete beta function
(continued fraction, no scipy), and the effect size carries a normal-
approximation confidence interval. The star rule used in the comparison
tables demands both a small p and a large |d|, because either alone can
mislead: a large cohort makes trivial shifts significant, and a tiny
cohort hides real ones.

Run:  python3 demos/04_group_statistics.py
"""

import numpy as np

from shoulderkin.stats import cohens_d, significance_flag, welch_t

CLEAR_X = [4.1, 5.3, 3.8, 4.9, 5.6, 4.4, 5.1, 3.9]
CLEAR_Y = [3.6, 4.2, 3.1, 3.9, 4.4, 3.3, 4.0, 3.5]


def describe(label, x, y):
    t, dof, p = welch_t(x, y)
    d, lo, hi = cohens_d(x, y)
    star = significance_flag(p, d)
    print(f"{label} (n = {len(x)} vs {len(y)})")
    print(f"  Welch t = {t:7.3f}  dof = {dof:7.2f}  p = {p:.4f}")
    print(f"  Cohen's d = {d:6.3f}  95% CI [{lo:.3f}, {hi:.3f}]")
    print(f"  verdict: {'starred' if star else 'no star'}")
    print()
    return t, dof, p


def main():
    rng = np.random.default_rng(13)

    describe("clear separation", CLEAR_X, CLEAR_Y)

    # 150 subjects a side turn a 0.25-sd shift into p < 0.05, but the
    # effect is far below the 0.8 bar, so the table stays unstarred
    big_x = list(rng.normal(0.25, 1.0, size=150))
    big_y = list(rng.normal(0.0, 1.0, size=150))
    describe("trivial shift, huge cohort", big_x, big_y)

    # four subjects a side cannot certify even a whole-sd shift
    describe("big shift, tiny cohort", [5.2, 6.0, 4.6, 5.5], [4.3, 5.1, 3.4, 4.9])


if __name__ == "__main__":
    main()
