"""Closed-form constants appearing in the paper's sharp results.

* ``KAPPA_CC`` (Lemma 5.1): the coupon-collector longest-wait constant —
  ``t_seq(K_n) ~ κ_cc · n`` with

      κ_cc = Σ_{i≥1} (−1)^{i+1} ( 2/(i(3i−1)) + 2/(i(3i+1)) ) ≈ 1.2552

  It is stored as the float literal :func:`kappa_cc` returns at its
  default 200,000 terms, so importing this module sums nothing.

  Note: the paper's display drops the alternating sign and flips the inner
  ``+`` (it prints ``Σ (2/(i(3i-1)) − 2/(i(3i+1)))``, which evaluates to
  ≈ 0.59, inconsistent with the quoted value 1.255).  The form above
  follows from ``κ_cc = ∫₀^∞ (1 − Π_{i≥1}(1 − e^{-ix})) dx`` via Euler's
  pentagonal-number theorem and matches both the quoted 1.255 and the
  exact finite-n computation :func:`expected_max_geometric_sum` (tested).

* ``PI2_OVER_6`` (Theorem 5.2): ``t_par(K_n) ~ (π²/6) n ≈ 1.6449 n``.
* ``KAPPA_P_SIMULATED`` (Table 1 footnote): the path constant κ_p in
  ``t_seq(P_n) ≈ κ_p n² log n``; the paper credits simulations giving
  ``κ_p ≈ 0.6`` — our benches re-estimate it (see
  ``benchmarks/bench_path_kappa.py``).
"""

from __future__ import annotations

import math

__all__ = [
    "kappa_cc",
    "KAPPA_CC",
    "PI2_OVER_6",
    "KAPPA_P_SIMULATED",
    "expected_max_geometric_sum",
]


def kappa_cc(terms: int = 200_000) -> float:
    """Evaluate Lemma 5.1's constant via the alternating series
    ``Σ (−1)^{i+1} (2/(i(3i−1)) + 2/(i(3i+1)))`` (see module docstring for
    the correction to the paper's display).

    Truncation error after ``terms`` addends is below the first omitted
    term, ``≈ (4/3)/terms²`` — ~3e-11 at the default.

    >>> round(kappa_cc(), 4)
    1.2552
    """
    if terms < 1:
        raise ValueError(f"terms must be >= 1, got {terms}")
    total = 0.0
    # Summed in reverse so the tiny tail terms accumulate first.
    for i in range(terms, 0, -1):
        sign = 1.0 if i % 2 == 1 else -1.0
        total += sign * (2.0 / (i * (3 * i - 1)) + 2.0 / (i * (3 * i + 1)))
    return total


#: Lemma 5.1's constant: ``repr(kappa_cc())``, stored so an import does
#: not sum 200,000 terms (``tests/test_bounds.py`` pins the equality).
KAPPA_CC: float = 1.255197456920205

#: Theorem 5.2's Parallel-IDLA constant on the clique.
PI2_OVER_6: float = math.pi**2 / 6.0

#: Table 1 footnote: simulated path constant (Nikolaus Howe's simulations).
KAPPA_P_SIMULATED: float = 0.6


def expected_max_geometric_sum(n: int) -> float:
    """Exact ``E[max_i G_i]`` for independent ``G_i ~ Geom(i/n)``, i=1..n.

    This is the coupon collector's longest single wait (the law of
    ``τ_seq(K_{n+1})``'s longest walk up to the +1 boundary effect);
    ``E[T_n]/n → κ_cc``.  Computed by inclusion–exclusion:

        E[max] = Σ_{t≥0} (1 − Π_i (1 − (1−p_i)^t))

    evaluated with the substitution ``q_i = 1 − i/n`` and truncation once
    the summand drops below 1e-14 — O(n · t_max) time, fine for the sizes
    benches compare against.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    import numpy as np

    q = 1.0 - np.arange(1, n + 1) / n  # failure probs, q_n = 0
    total = 0.0
    t = 0
    qt = np.ones(n)
    while True:
        # P[max > t] = 1 - prod_i (1 - q_i^t)
        p_gt = 1.0 - np.prod(1.0 - qt)
        total += p_gt
        if p_gt < 1e-14 and t > n:
            break
        qt *= q
        t += 1
        if t > 10_000_000:  # pragma: no cover - safety valve
            break
    return float(total)
