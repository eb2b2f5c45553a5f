"""Walk through the alpha matrix family on one small graph.

The matrix alpha*D + (1 - alpha)*A interpolates between the adjacency
matrix (alpha = 0) and the degree diagonal (alpha = 1), passing through
half the signless Laplacian at alpha = 1/2. Row sums equal the vertex
degrees for every alpha, which is the fact the spectral bounds lean on.
"""

import numpy as np

from aalpha import build_alpha_matrix, from_edge_list, matrix_csv, matvec

# A "paw": triangle 0-1-2 plus the pendant vertex 3 hanging off vertex 2.
# Its edges are one sorted (m, 2) integer array; its degrees are counted once.
paw = from_edge_list(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
print(f"graph: n = {paw.n}, m = {paw.edge_count}, "
      f"edges = {paw.edges.tolist()}, degrees = {paw.degrees.tolist()}")

for alpha in (0.0, 0.5, 1.0):
    am = build_alpha_matrix(paw, alpha)
    print(f"\nalpha = {alpha}")
    print(matrix_csv(am), end="")

print("\nrow sums vs degrees at alpha = 0.3:")
am = build_alpha_matrix(paw, 0.3)
row_sums = matvec(am, np.ones(paw.n))
for v, (rs, d) in enumerate(zip(row_sums, paw.degrees.tolist())):
    print(f"  vertex {v}: row sum = {rs:.17g}, degree = {d}")

print("\nedge entry (0,1) falls with alpha, diagonal entry (2,2) rises:")
for alpha in (0.0, 0.25, 0.5, 0.75, 1.0):
    m = build_alpha_matrix(paw, alpha).matrix
    print(f"  alpha = {alpha:4}: m[0,1] = {m[0, 1]:.2f}   m[2,2] = {m[2, 2]:.2f}")
