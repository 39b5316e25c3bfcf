"""The closed-form limit laws and their internal consistency.

Shows the pivot-ratio law three ways, the above-1 truncated Pareto laws,
and the Laplace functional of the limiting below-1 point process.
"""

import numpy as np

from ppratios import limit_laws as ll

alpha, r, n = 1.0, 2, 2

print(f"pivot-ratio law for alpha={alpha}, r={r}, n={n}: three evaluations")
w = np.array([0.2, 0.5, 0.8])
density, cdf = ll.w_law(r, n, alpha, w)
print("  w              :", w)
print("  beta form      :", np.round(cdf, 10))
print("  binomial form  :", np.round(ll.k_orderstat_cdf(r, n, alpha, w), 10))
print("  density        :", np.round(density, 6))
print("  cdf at 0 and 1 :", ll.w_cdf(r, n, alpha, [0.0, 1.0]), "(w_cdf, closed support)")

print("\nabove-1 laws")
print("  J(0.5) cdf at 1.5:", ll.j_law(0.5, 1.0, 1.5)[1], "(= 2/3)")
print("  L cdf at 2       :", ll.l_law(1.0, 2.0)[1], "(= 1/2)")
print("  successive-ratio cdf, k=3, alpha=2, y=0.9:",
      ll.successive_ratio_cdf(3, 2.0, 0.9), "(= 0.9^6)")
print("  trimmed ratio tail, r=2, alpha=1, x=2:",
      ll.ratio_tail_n1(2, 1.0, 2.0), "(= 1/4)")

print("\nLaplace functionals of the limit pattern")
probe = ll.LaplaceProbe(amplitude=1.0, a=0.5, b=1.0)
print("  step probe on (0.5, 1), amplitude 1:")
print("    below-1 factor, n=1:", round(ll.nb_laplace(1, 1.0, probe), 6))
print("    void-probability probe (amplitude inf), n=2:",
      ll.nb_laplace(2, 1.0, ll.LaplaceProbe(np.inf, 0.5, 1.0)), "(= 0.25)")
full = ll.limit_laplace_full(0, 2, 1.0, probe)
print("    full functional factorizes for below-1 probes:",
      full == ll.nb_laplace(2, 1.0, probe))

ramp = ll.LaplaceProbe(0.5, 0.4, 0.9, ll.LINEAR_RAMP)
print("  ramp probe needs quadrature:", round(ll.nb_laplace(2, 1.5, ramp), 6))

print("\nconditional transforms")
print("  Phi(lam=1, u=0.5, alpha=1):", round(ll.phi_conditional(1.0, 0.5, 1.0), 6))
print("  Gamma(r+n) conditional cdf at w=0.5, z=1:",
      round(ll.conditional_gamma_cdf(1, 1, 1.0, 0.5, 1.0), 6),
      "(= 1 - 3e^-2)")
