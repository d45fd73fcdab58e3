"""Quadrature rules on the reference triangle and reference edge.

Triangle rules are conical-product rules (Gauss-Legendre x Gauss-Jacobi via
the Duffy map), which give the requested polynomial exactness with positive
weights.  Edge rules are Gauss-Legendre on [0, 1].  Both are built from the
tabulated one-dimensional Gauss rules below, so they exist up to degree 19,
and their bits do not depend on the installed scipy.
"""

from dataclasses import dataclass
from functools import lru_cache
from math import factorial

import numpy as np

from .errors import UnsupportedCombination


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """Quadrature rule on the reference triangle (0,0)-(1,0)-(0,1).

    points are stored in barycentric coordinates (lambda0, lambda1, lambda2)
    with lambda0 = 1 - x - y; weights sum to the reference area 1/2 and
    integrate all polynomials up to exactness_degree exactly.  Both arrays
    are read-only: a rule is cached and shared by every caller.
    """

    points: np.ndarray  # (n, 3) barycentric
    weights: np.ndarray  # (n,)
    exactness_degree: int

    @property
    def xy(self) -> np.ndarray:
        """Reference coordinates (n, 2): x = lambda1, y = lambda2."""
        return self.points[:, 1:]

    def __len__(self) -> int:
        return len(self.weights)


@lru_cache(maxsize=None)
def triangle_rule(degree: int) -> QuadratureRule:
    """Rule integrating all bivariate polynomials up to `degree` exactly."""
    degree = max(int(degree), 0)
    # Gauss-Legendre in the collapsed direction s on [0, 1].
    s, ws = edge_rule(degree)
    # Gauss-Jacobi with weight (1 - t) on [0, 1]; absorbs the Duffy Jacobian.
    xj, wj = _gauss(_JACOBI, degree)
    t = 0.5 * (xj + 1.0)
    wj = 0.25 * wj

    S, T = np.meshgrid(s, t, indexing="ij")
    x = (S * (1.0 - T)).ravel()
    y = T.ravel()
    w = np.outer(ws, wj).ravel()
    pts = np.column_stack([1.0 - x - y, x, y])
    return QuadratureRule(points=_read_only(pts), weights=_read_only(w),
                          exactness_degree=degree)


@lru_cache(maxsize=None)
def edge_rule(degree: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre rule on the unit interval, exact up to `degree`.

    Returns read-only (nodes, weights) with nodes in (0, 1) and weights
    summing to 1; the physical arc length is multiplied in by the caller.
    """
    xs, ws = _gauss(_LEGENDRE, degree)
    return _read_only(0.5 * (xs + 1.0)), _read_only(0.5 * ws)


def monomial_integral(a: int, b: int) -> float:
    """Exact integral of x^a y^b over the reference triangle."""
    return factorial(a) * factorial(b) / factorial(a + b + 2)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _gauss(table, degree: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights on [-1, 1] of the table's rule exact up to `degree`:
    the one with degree // 2 + 1 points."""
    n = max(int(degree), 0) // 2 + 1
    if n > len(table):
        raise UnsupportedCombination(
            f"quadrature degree {degree} is above the tabulated {2 * len(table) - 1}")
    x, w = table[n - 1]
    return np.array(x), np.array(w)


# Gauss-Legendre (_LEGENDRE) and Gauss-Jacobi with weight 1 - x (_JACOBI)
# nodes and weights on [-1, 1] for 1..10 points: the arrays that scipy 1.17.1's
# scipy.special.roots_legendre(n) and roots_jacobi(n, 1.0, 0.0) return, each
# float written by repr, so it reads back with scipy's bits.
_LEGENDRE = (
    ((0.0,),
     (2.0,)),
    ((-0.5773502691896257, 0.5773502691896257),
     (1.0, 1.0)),
    ((-0.7745966692414834, 0.0, 0.7745966692414834),
     (0.5555555555555558, 0.8888888888888883, 0.5555555555555558)),
    ((-0.8611363115940526, -0.3399810435848563, 0.3399810435848563, 0.8611363115940526),
     (0.3478548451374538, 0.6521451548625462, 0.6521451548625462, 0.3478548451374538)),
    ((-0.906179845938664, -0.5384693101056831, 0.0, 0.5384693101056831, 0.906179845938664),
     (0.23692688505618897, 0.4786286704993665, 0.568888888888889, 0.4786286704993665,
      0.23692688505618897)),
    ((-0.932469514203152, -0.6612093864662645, -0.23861918608319693, 0.23861918608319693,
      0.6612093864662645, 0.932469514203152),
     (0.17132449237917016, 0.36076157304813855, 0.4679139345726912, 0.4679139345726912,
      0.36076157304813855, 0.17132449237917016)),
    ((-0.9491079123427584, -0.7415311855993945, -0.4058451513773972, 0.0, 0.4058451513773972,
      0.7415311855993945, 0.9491079123427584),
     (0.12948496616886992, 0.2797053914892766, 0.38183005050511876, 0.4179591836734691,
      0.38183005050511876, 0.2797053914892766, 0.12948496616886992)),
    ((-0.9602898564975363, -0.7966664774136267, -0.525532409916329, -0.18343464249564984,
      0.18343464249564984, 0.525532409916329, 0.7966664774136267, 0.9602898564975363),
     (0.10122853629037562, 0.22238103445337473, 0.3137066458778876, 0.36268378337836205,
      0.36268378337836205, 0.3137066458778876, 0.22238103445337473, 0.10122853629037562)),
    ((-0.9681602395076261, -0.8360311073266358, -0.6133714327005904, -0.3242534234038089, 0.0,
      0.3242534234038089, 0.6133714327005904, 0.8360311073266358, 0.9681602395076261),
     (0.08127438836157413, 0.1806481606948576, 0.2606106964029355, 0.31234707704000275,
      0.3302393550012596, 0.31234707704000275, 0.2606106964029355, 0.1806481606948576,
      0.08127438836157413)),
    ((-0.9739065285171717, -0.8650633666889844, -0.6794095682990244, -0.4333953941292472,
      -0.14887433898163116, 0.14887433898163116, 0.4333953941292472, 0.6794095682990244,
      0.8650633666889844, 0.9739065285171717),
     (0.06667134430868714, 0.14945134915058053, 0.21908636251598224, 0.26926671930999674,
      0.2955242247147533, 0.2955242247147533, 0.26926671930999674, 0.21908636251598224,
      0.14945134915058053, 0.06667134430868714)),
)

_JACOBI = (
    ((-0.3333333333333333,),
     (2.0,)),
    ((-0.6898979485566357, 0.2898979485566358),
     (1.2721655269759087, 0.7278344730240913)),
    ((-0.8228240809745921, -0.1810662711185305, 0.5753189235216941),
     (0.8037276549558384, 0.9169644254383448, 0.2793079196058167)),
    ((-0.8857916077709646, -0.44631397272375245, 0.16718086473783364, 0.7204802713124389),
     (0.5420276537259541, 0.8138582720410844, 0.5193901904329293, 0.12472388380003234)),
    ((-0.9203802858970626, -0.6039731642527836, -0.1240503795052277, 0.39092854670727223,
      0.8029298284023472),
     (0.3871263609066059, 0.6686985523774788, 0.5855479483386794, 0.2956354802904667,
      0.0629916580867692)),
    ((-0.9413671456804301, -0.7038428006630314, -0.3260306194376914, 0.1173430375431003,
      0.538467724060109, 0.8538913426394822),
     (0.2892413229020356, 0.5421699889260747, 0.5631702151527953, 0.3946446035626208,
      0.17582066220203585, 0.034953207254438116)),
    ((-0.955041227122575, -0.7706418936781917, -0.4684203544308209, -0.09430725266111074,
      0.2947505657736607, 0.6395186165262152, 0.8874748789261557),
     (0.22386945369396347, 0.4420370327634976, 0.5095635891983541, 0.42850026278349523,
      0.2655387858619663, 0.10963342688749395, 0.020857448811229563)),
    ((-0.9644401697052731, -0.817352784200412, -0.5713830412087385, -0.2561356708334554,
      0.09037336960685335, 0.4263504857111389, 0.7112674859157089, 0.9107320894200603),
     (0.17820321744622417, 0.3644760945454951, 0.4500231978835482, 0.42418943774372003,
      0.31679839796927683, 0.18175727801879568, 0.0713716106239449, 0.013180765768995064)),
    ((-0.9711751807022471, -0.8512252205816078, -0.6477666876740094, -0.3806648401447244,
      -0.07605919783797811, 0.23623446939058804, 0.5256460303700793, 0.7638420424200026,
      0.9274843742335811),
     (0.14511201409311436, 0.30429702043723433, 0.3941349686893839, 0.40123523677347395,
      0.33743328737968203, 0.23360478118066105, 0.1272192859642162, 0.04824001713914158,
      0.008723388343092527)),
    ((-0.9761647731351688, -0.8765358562457037, -0.7057771007138595, -0.4776806479830877,
      -0.21072030622842625, 0.0734775314313213, 0.3518889233533302, 0.6019578420737977,
      0.8034219755802935, 0.939941935677027),
     (0.12039803209614727, 0.257148618036331, 0.3448452011567048, 0.37078757471089296,
      0.33822843876330927, 0.26421230225340164, 0.1736076256286026, 0.09109836581305221,
      0.033677279131932865, 0.005996562409625539)),
)
