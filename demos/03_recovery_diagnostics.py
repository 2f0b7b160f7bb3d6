"""Recovery-condition diagnostics
=================================

Given a problem with known truth, computes every quantity the recovery
guarantees consume: the shared/non-shared partition of the true support, the
weakest signal magnitude, the gradient bound at the truth, brute-force
restricted eigenvalue constants, and the closed-form threshold and error
bounds they imply.
"""

from mtgreedy import (
    SynthSpec,
    beta_min,
    error_bound,
    gen_synthetic,
    gradient_bound_lambda,
    partition_supports,
)
from mtgreedy.diagnostics import theorem_inputs

spec = SynthSpec(p=10, n=40, r=2, s=2, kappa=0.5, noise_variance=0.01, seed=3)
problem, beta_star = gen_synthetic(spec)

d = 2
part = partition_supports(beta_star, d)
print(f"true support partition at d={d}:")
print(f"  shared rows:   {sorted(part.shared_rows)}")
print(f"  singletons:    {sorted(part.nonshared)}")
print(f"  per-task size: {part.s_star}")

floor = beta_min(beta_star, d)
lam = gradient_bound_lambda(problem, beta_star)
print(f"weakest guarded magnitude: {floor:.4f}")
print(f"gradient bound at truth:   {lam:.4f}")

w, nu = 1.5, 0.5
inputs = theorem_inputs(problem, part.s_star_max, lam, part.s_star_max, w, nu)
print(f"restricted eigenvalue constants over size-{part.s_star_max} subsets: "
      f"C_min={inputs.C_min:.4f}, rho={inputs.rho:.4f}")
print(f"support-inflation lower bound eta:   {inputs.eta:.1f}")
print(f"stopping-threshold lower bound:      {inputs.epsilon:.3g}")
print(f"implied Frobenius error bound:       {error_bound(inputs):.3g}")
print()
print("The thresholds are worst-case constants; the sweeps in demo 02 show")
print("the estimator succeeding at far friendlier sample sizes.")
