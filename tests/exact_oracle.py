"""The exact optimum of a small crowd, in integer arithmetic.

Every float is an integer over a power of two, so a crowd's moments pose the
solver's QP exactly: minimize f(w) = w'Qw - 2 c'w + v over the simplex, with
Q = S + m m', S the symmetric part of judge_cov, m = mu - mu_y, c = cross_cov
and v = criterion_var ((mu'w - mu_y)^2 = (m'w)^2 where sum w = 1).  Here Q
and c are held times one integer K, so that every entry is an integer.

A support F gives the KKT system Q_FF x - t 1 = c_F, 1'x = 1.  When Q is
positive definite, f is strictly convex, and that x is the unique minimizer
w* exactly when x >= 0 and every half partial (Qx)_i - c_i is at least t.
Fraction-free elimination (Bareiss, Math. Comp. 22, 1968) keeps every number
an integer.  Nothing here is used by the package.
"""

import math
from fractions import Fraction
from itertools import chain, combinations


def _integers(values) -> tuple[list[int], int]:
    """Integers a and an integer p with values = a / p, for floats or
    fractions."""
    ratios = [x.as_integer_ratio() for x in values]
    p = math.lcm(*(d for _, d in ratios))
    return [n * (p // d) for n, d in ratios], p


def _bareiss(rows: list[list[int]]) -> list[list[int]]:
    """Eliminate below the diagonal in place; the k-th pivot is then the
    leading principal minor of order k + 1.  Needs nonzero pivots but the
    last."""
    previous = 1
    for k, lead in enumerate(rows[:-1]):
        for row in rows[k + 1:]:
            row[k + 1:] = [(a * lead[k] - row[k] * b) // previous
                           for a, b in zip(row[k + 1:], lead[k + 1:])]
            row[k] = 0
        previous = lead[k]
    return rows


def exact_qp(model):
    """(K Q, K c, K, v) of ``model``, with K Q and K c integers."""
    n = model.n_judges
    second, big = _integers(model.judge_cov.ravel().tolist() + model.cross_cov.tolist())
    means, small = _integers(model.judge_means.tolist() + [model.criterion_mean])
    m = [mu - means[-1] for mu in means[:-1]]
    # K = 2 big small^2: K S = small^2 (C + C') and K m m' = 2 big m m', in
    # the integers of _integers.
    q = [[small * small * (second[i * n + j] + second[j * n + i]) + 2 * big * m[i] * m[j]
          for j in range(n)] for i in range(n)]
    c = [2 * small * small * x for x in second[n * n:]]
    return q, c, 2 * big * small * small, Fraction(model.criterion_var)


def objective(qp, w) -> Fraction:
    """f at the simplex point w / sum(w), exactly."""
    q, c, scale, v = qp
    a, _ = _integers(w)
    s = sum(a)
    quadratic = sum(ai * sum(qij * aj for qij, aj in zip(row, a)) for ai, row in zip(a, q))
    return Fraction(quadratic - 2 * s * sum(ci * ai for ci, ai in zip(c, a)), s * s * scale) + v


def kkt_point(qp, support):
    """w* and f*, if the KKT system of ``support`` gives the minimizer;
    else None.  Q must be positive definite."""
    q, c, scale, v = qp
    k = len(support)
    rows = [[q[i][j] for j in support] + [-1, c[i]] for i in support]
    rows = _bareiss(rows + [[1] * k + [0, 1]])
    det = rows[-1][-2]
    # Back substitution for X = det * (x, t), integers by Cramer's rule.
    solved = []
    for row in reversed(rows):
        rest = sum(a * b for a, b in zip(row[-1 - len(solved):-1], solved))
        solved.insert(0, (row[-1] * det - rest) // row[len(rows) - 1 - len(solved)])
    if det < 0:
        det, solved = -det, [-x for x in solved]
    x = [0] * len(q)
    for i, value in zip(support, solved):
        x[i] = value
    t = solved[-1]
    if min(x) < 0 or any(sum(a * b for a, b in zip(row, x)) - ci * det < t
                         for row, ci in zip(q, c)):
        return None
    # x'Qx = x'(c + t 1) on the simplex, so f* = t - c'x + v.
    f_star = Fraction(t - sum(ci * xi for ci, xi in zip(c, x)), det * scale) + v
    return [Fraction(xi, det) for xi in x], f_star


def exact_optimum(qp, support):
    """w* and f* of the exact QP ``qp``, whose Q must be positive definite.
    ``support`` is tried first, then every support in turn."""
    assert all(row[k] > 0 for k, row in enumerate(_bareiss([list(r) for r in qp[0]])))
    n = len(qp[0])
    everything = (s for size in range(1, n + 1) for s in combinations(range(n), size))
    for trial in chain([support], everything):
        found = kkt_point(qp, list(trial))
        if found is not None:
            return found
    raise AssertionError("no support satisfies the KKT conditions")
