"""The flag-wise logarithmic rescaling Phi and the ball parameterization.

Phi rescales each flag cone onto itself so that the composite with the
exponential embedding extends continuously to the sphere at infinity.
In simplicial coordinates u_1..u_k on a flag cone the map is

    v_j = (1 / 2 pi) * log((1 + u_1 + ... + u_j) / (1 + u_1 + ... + u_{j-1}))

with exact inverse u_j = (e^(2 pi v_j) - 1) * e^(2 pi (v_1+...+v_{j-1})).
The boundary-extended parameterization of a closed flag simplex goes
through barycentric coordinates xi_0..xi_n (xi_0 = 0 is the face at
infinity): the chart simplex point is the partial-sum vector
w_j = xi_0 + ... + xi_{j-1}, fed to the chart's monomial map.

A probe for the failure of the plain exponential embedding to extend to
the ball is included: along the path u = (s, c) in a rank-2 chart the
second triangular coordinate stays e^(-2 pi c) for every s, so the limit
at the mid-edge boundary point depends on the path.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate

from .bary import Flag, _locate, simplicial_coords
from .charts import TWO_PI, Atlas, ToricPoint, psi_eval, theta
from .fan import Fan


def phi_coords(u):
    """All rescaling coordinates of u (simplicial coordinates, >= 0):
    v_j = log((1 + S_j) / (1 + S_(j-1))) / 2 pi, from the float prefix
    sums S_j = u_1 + ... + u_j (S_0 = 0.0), each added left to right
    once."""
    sums = list(accumulate(map(float, u), initial=0.0))
    return tuple(math.log((1.0 + s) / (1.0 + r)) / TWO_PI for r, s in zip(sums, sums[1:]))


def phi_point(generators, u, n: int):
    """Phi of simplicial coordinates u on the cone of the given
    barycenters, re-assembled as a point of R^n in that basis."""
    out = [0.0] * n
    for vj, g in zip(phi_coords(u), generators):
        for i in range(n):
            out[i] += vj * g[i]
    return tuple(out)


def rescale_in_flag(flag: Flag, x):
    """Phi on the flag's cone: rescale the simplicial coordinates of x
    and re-assemble in the barycenter basis.  Raises NotInCone off-cone.

    Phi of a subflag S of F equals Phi of F at every x of S's cone, bit
    for bit in floats too:

    - S's barycenters are F's at the same positions, and F's left
      inverse is dual to F's barycenters, <beta_j, B_i> = delta_ij
      (certified exactly by the dual_witness of verify's
      monomial_diagram).  The coordinates are exact rationals, so F's
      coordinates of x are S's with exact 0s at the positions off S.
    - phi_coords maps such a 0 to log(1) / 2 pi = 0.0, and adding 0.0
      leaves every other prefix sum 1 + u_1 + ... + u_j, hence every
      other v_j, unchanged.  phi_point then adds 0.0 * B_j terms, which
      change no sum.
    """
    return phi_point(flag.barycenters, simplicial_coords(flag, x), len(x))


def rescale_global(fan: Fan, x):
    """The glued global rescaling homeomorphism of N_R.

    Evaluates flag-locally in the lexicographically least maximal flag
    containing x; agreement across overlapping flags is a checked
    property, not an assumption (see the verification suites).  One
    exact pass (bary._locate) finds that flag and x's coordinates in
    it, so the result is rescale_in_flag(locate_flag(fan, x), x) bit
    for bit, without its second denominator clearing and sign test.
    """
    flag, u = _locate(fan, x)
    return phi_point(flag.barycenters, u, len(x))


def bary_to_delta(xi):
    """Partial-sum parameterization of the simplex: w_j = xi_0+...+xi_{j-1}.

    Exact when xi is rational; the output always satisfies the simplex
    chain inequalities when xi is a valid barycentric vector.
    """
    n = len(xi) - 1
    out = []
    acc = xi[0] * 0  # keeps Fractions exact, floats float
    for j in range(n):
        acc = acc + xi[j]
        out.append(acc)
    return tuple(out)


BARYCENTRIC_TOL = 1e-12  # check_barycentric's float slack


def check_barycentric(xi):
    """Raise ValueError unless xi is a barycentric vector: finite entries,
    none below -BARYCENTRIC_TOL, and a sum of exactly 1 when every entry
    is an int or Fraction, else a float sum within BARYCENTRIC_TOL of 1."""
    floats = tuple(map(float, xi))
    if not all(map(math.isfinite, floats)):
        raise ValueError("barycentric coordinates must be finite")
    if any(v < -BARYCENTRIC_TOL for v in floats):
        raise ValueError("barycentric coordinates must be nonnegative")
    if all(isinstance(x, (int, Fraction)) for x in xi):
        off = sum(xi) != 1
    else:
        off = abs(sum(floats) - 1.0) > BARYCENTRIC_TOL
    if off:
        raise ValueError("barycentric coordinates must sum to 1")


def param_boundary_point(atlas: Atlas, flag: Flag, xi) -> ToricPoint:
    """Chart point of the closed flag simplex at barycentric coordinates xi.

    Defined for every valid xi including the xi_0 = 0 face at infinity;
    xi = (1, 0, ..., 0) is the image of the origin of N_R and
    xi = (0, ..., 0, 1) the torus-fixed point of the top cone's chart.

    On the interior this is psi . theta . exp . Phi, by an identity that
    does not depend on the fan.  Let U_j = u_1 + ... + u_j (U_0 = 0).
    Phi gives e^(-2 pi v_i) = (1 + U_(i-1)) / (1 + U_i), so the suffix
    product telescopes:

        theta(e^(-2 pi Phi(u)))_j = prod_(i >= j) (1 + U_(i-1)) / (1 + U_i)
                                  = (1 + U_(j-1)) / (1 + U_n),

    which is bary_to_delta(xi)_j, the partial sum xi_0 + ... + xi_(j-1),
    at the compactifying chart's xi_0 = 1 / (1 + U_n),
    xi_i = u_i / (1 + U_n).  psi's exponents are certified on every chart
    by verify's monomial_diagram identities, and its evaluator is
    cross-checked by simplex_inversion's round trip.
    """
    check_barycentric(xi)
    if len(xi) != len(flag) + 1:
        raise ValueError(f"expected {len(flag) + 1} barycentric coordinates")
    chart = atlas.chart(flag)
    w = tuple(float(v) for v in bary_to_delta(xi))
    return atlas.chart_point(chart, w)


def nonextension_probe(atlas: Atlas, flag: Flag, c: float, s: float):
    """Chart coordinates along the path u = (s, c) in a rank-2 chart.

    The first triangular coordinate is e^(-2 pi (s + c)) and tends to 0
    as s grows, independent of c's role; the second stays e^(-2 pi c)
    for every s, exhibiting the path dependence of the naive exponential
    limit at the boundary point with barycentric coordinates (0, 1, 0).
    """
    if atlas.fan.dim != 2:
        raise ValueError("the probe is defined for rank-2 fans")
    if c <= 0:
        raise ValueError("the probe path needs c > 0")
    chart = atlas.chart(flag)
    z = (math.exp(-TWO_PI * s), math.exp(-TWO_PI * c))
    return psi_eval(chart, theta(z))
