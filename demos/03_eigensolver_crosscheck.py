"""The default solvers beside two oracle solvers that share no code.

LAPACK's symmetric eigensolver (numpy.linalg.eigh) is the default for
n <= 1000, and Lanczos, stopped on an enclosure of lambda1, above it.
Cyclic Jacobi diagonalizes the whole matrix; shifted power iteration chases
only the dominant eigenvalue (the shift by Delta*I keeps bipartite
adjacency matrices, whose spectrum is symmetric, from oscillating). On
every graph all four must land on the same spectral radius.
"""

from aalpha import (ConvergenceError, bound_g, build_alpha_matrix, gen_cycle,
                    gen_random, gen_star, spectral_radius_dense,
                    spectral_radius_jacobi, spectral_radius_lanczos,
                    spectral_radius_power)

SOLVERS = (spectral_radius_dense, spectral_radius_lanczos,
           spectral_radius_jacobi, spectral_radius_power)

print("random graphs, alpha = 0.3:")
print(f"{'graph':>16s} {'dense (LAPACK)':>20s} {'lanczos':>20s} "
      f"{'jacobi':>20s} {'power':>20s} {'max |diff|':>10s}")
for n, p, seed in [(5, 0.5, 1), (8, 0.3, 2), (10, 0.7, 3), (12, 0.5, 4)]:
    g = gen_random(n, p, seed)
    am = build_alpha_matrix(g, 0.3)
    lams = [solve(am).lambda1 for solve in SOLVERS]
    print(f"  G({n},{p}) s={seed} "
          + " ".join(f"{lam:20.15f}" for lam in lams)
          + f" {max(lams) - min(lams):10.2e}")

print("\nthe bipartite trap: C4 adjacency has eigenvalues {2, 0, 0, -2}.")
am = build_alpha_matrix(gen_cycle(4), 0.0)
rp = spectral_radius_power(am)
print(f"  power iteration still finds lambda1 = {rp.lambda1:.12f} "
      f"in {rp.iterations} iterations (residual {rp.residual:.1e})")

print("\nstars K_{1,D} at alpha = 0.5 hit the closed-form bound exactly:")
for Delta in (1, 3, 6, 10):
    am = build_alpha_matrix(gen_star(Delta + 1), 0.5)
    lam = spectral_radius_dense(am).lambda1
    print(f"  Delta = {Delta:2d}: lambda1 = {lam:.12f}   "
          f"g = {bound_g(Delta, 0.5):.12f}")

print("\nsolver work on one 40-vertex graph, alpha = 0.5:")
am = build_alpha_matrix(gen_random(40, 0.2, 7), 0.5)
rd = spectral_radius_dense(am)
rl = spectral_radius_lanczos(am)
rj = spectral_radius_jacobi(am)
rp = spectral_radius_power(am)
print(f"  dense:   one LAPACK call, eigenvector residual {rd.residual:.1e}")
print(f"  lanczos: {rl.iterations} steps,      residual {rl.residual:.1e}")
print(f"  jacobi:  {rj.iterations} sweeps,      off-norm residual {rj.residual:.1e}")
print(f"  power:   {rp.iterations} iterations, residual {rp.residual:.1e}")

print("\na small spectral gap: C_400 at alpha = 0.5 has lambda1 = 2 exactly.")
am = build_alpha_matrix(gen_cycle(400), 0.5)
rd = spectral_radius_dense(am)
rl = spectral_radius_lanczos(am)
print(f"  dense:   lambda1 = {rd.lambda1:.15f} (residual {rd.residual:.1e})")
# The all-ones start vector is the Perron vector of a regular graph.
print(f"  lanczos: lambda1 = {rl.lambda1:.15f} in {rl.iterations} step")
try:
    spectral_radius_power(am)
except ConvergenceError as exc:
    # The shifted eigenvalue ratio is (4 - 1.2e-4) / 4, so each step
    # shrinks the residual by a factor of only about 1 - 3e-5.
    print(f"  power:   stalls after {exc.iterations} iterations at "
          f"{exc.estimate:.15f} (residual {exc.residual:.1e}, gate 1e-9)")
