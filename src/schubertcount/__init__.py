"""Exact Schubert-calculus counts of projective subspaces on hypersurfaces.

Each public name lives in its module; import it from there, e.g.
`from schubertcount.counts import plane_count`.  `combinatorics` holds
partitions, `rank`, feasibility and the rows of the linear factors;
`polynomial` the exact sparse and packed arithmetic; `schur` the
alternants, the Schur coefficient engine and the torus quadrature oracle's
checks; `counts` the count families (`plane_count`, `incidence`,
`root_poly`, cubic counts); `asymptotics` the float paths (torus scans, the
quadrature's sweep) and `asymptote_table`; `cli` the command line.  The
package imports none of them.
"""

__version__ = "0.1.0"
