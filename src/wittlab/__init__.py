"""wittlab: exact arithmetic for Witt vectors.

Everything here computes over the integers (or explicit finite rings);
there is no floating point anywhere.  The package has four layers:

* ``intlinalg``, ``poly``, ``rings``, ``freealg``: exact linear algebra
  over Z, multivariate integer polynomials, small finite rings, and a
  truncated free associative algebra.
* ``witt``: classical p-typical Witt vectors over any commutative base
  ring.  Over Z, Z/m and F_p[t]/(f) the ring operations and Frobenius
  run in ghost space on a torsion-free lift with exact ghost inversion;
  other rings evaluate the universal polynomials obtained from ghost
  inversion, which ``gen-polys`` also prints.
* ``bigwitt``: truncated big Witt vectors, their series model (addition),
  ghost-space multiplication on the same lifts, and the p-typical
  idempotent decomposition over p-local rings.
* ``abgroup``, ``tate``, ``ncpoly``, ``hochschild``: polynomial Witt
  vectors of vector spaces over F_p built from integral lattices, and
  the degree-zero Hochschild-Witt construction for associative algebras.

``wittlab.verify`` bundles the self-checks exposed by the CLI.
"""

from .errors import (
    NotDivisible,
    ParameterMismatch,
    ResourceLimit,
    NotPLocal,
    InvalidAlgebra,
)

__all__ = [
    "NotDivisible",
    "ParameterMismatch",
    "ResourceLimit",
    "NotPLocal",
    "InvalidAlgebra",
]

__version__ = "0.1.0"
