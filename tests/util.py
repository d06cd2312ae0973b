"""Shared naive oracles for the test suite. Everything here is written the
dumb way on purpose: direct monomial loops, stepwise derivatives, raw
factorials. The library must agree with these, not the other way round."""

import math
from fractions import Fraction

import numpy as np

from taylorlab.poly import Poly


def random_poly(rng, r, d, max_deg=6, nterms=8, scale=1.0):
    """Random sparse polynomial with exponents bounded per coordinate."""
    terms = {}
    for _ in range(nterms):
        we = tuple(int(rng.integers(0, max_deg + 1)) for _ in range(r))
        ze = tuple(int(rng.integers(0, max_deg + 1)) for _ in range(d))
        c = complex(rng.standard_normal(), rng.standard_normal()) * scale
        terms[(we, ze)] = terms.get((we, ze), 0j) + c
    return Poly(r, d, terms)


def random_point(rng, n, radius=1.0):
    return tuple(complex(rng.uniform(-radius, radius), rng.uniform(-radius, radius))
                 for _ in range(n))


def oracle_eval(p, w, z):
    """Monomial-by-monomial evaluation with bare ** powers."""
    total = 0j
    for (we, ze), c in p.terms.items():
        v = c
        for x, e in zip(w, we):
            v *= complex(x) ** e
        for x, e in zip(z, ze):
            v *= complex(x) ** e
        total += v
    return total


def oracle_diff_once(terms, coord, arity):
    """One partial derivative applied to a raw term list."""
    out = {}
    for (we, ze), c in terms.items():
        joint = list(we) + list(ze)
        if joint[coord] == 0:
            continue
        factor = joint[coord]
        joint[coord] -= 1
        key = (tuple(joint[:len(we)]), tuple(joint[len(we):]))
        out[key] = out.get(key, 0j) + c * factor
    return out


def oracle_gamma(f, w, zeta, m):
    """Taylor coefficient via stepwise derivatives and raw factorials."""
    terms = dict(f.terms)
    for i, order in enumerate(m):
        for _ in range(order):
            terms = oracle_diff_once(terms, f.r + i, f.r + f.d)
    value = 0j
    for (we, ze), c in terms.items():
        v = c
        for x, e in zip(w, we):
            v *= complex(x) ** e
        for x, e in zip(zeta, ze):
            v *= complex(x) ** e
        value += v
    denom = 1
    for order in m:
        denom *= math.factorial(order)
    return value / denom


def oracle_partial_sum_value(f, w, zeta, z, n, enum):
    """S_n(f, w, zeta)(z) summed term by term from naive Taylor coefficients."""
    total = 0j
    for k in range(n + 1):
        mk = enum.unrank(k)
        g = oracle_gamma(f, w, zeta, mk)
        v = g
        for x, c0, e in zip(z, zeta, mk):
            v *= (complex(x) - complex(c0)) ** e
        total += v
    return total


def isclose(p, q, tol=1e-10):
    """Whether two polynomials of one shape agree coefficient by
    coefficient within tol."""
    if (p.r, p.d) != (q.r, q.d):
        return False
    keys = set(p.terms) | set(q.terms)
    return all(abs(p.terms.get(k, 0j) - q.terms.get(k, 0j)) <= tol
               for k in keys)


def coeff_norm(p):
    """Largest coefficient modulus; 0 for the zero polynomial."""
    return max((abs(c) for c in p.terms.values()), default=0.0)


def fd_derivative(fn, x, h=1e-5):
    """Central difference along one complex coordinate of a callable C -> C."""
    return (fn(x + h) - fn(x - h)) / (2 * h)


def rel_err(a, b):
    denom = max(abs(a), abs(b), 1e-30)
    return abs(a - b) / denom


# exact complex arithmetic on (re, im) pairs of Fractions; every float64 is
# a Fraction, so these give the true value of a float computation's inputs

def exact(z):
    z = complex(z)
    return Fraction(z.real), Fraction(z.imag)


def exact_add(a, b):
    return a[0] + b[0], a[1] + b[1]


def exact_mul(a, b):
    return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]


def exact_powers(z, n):
    """[z^0, ..., z^n], exactly."""
    out = [(Fraction(1), Fraction(0))]
    for _ in range(n):
        out.append(exact_mul(out[-1], exact(z)))
    return out


def exact_distance(got, want):
    """|got - want| for a float complex got and an exact want."""
    got = exact(got)
    return math.hypot(float(got[0] - want[0]), float(got[1] - want[1]))


def exact_div(a, b):
    """a / b for exact complex pairs."""
    den = b[0] * b[0] + b[1] * b[1]
    return (a[0] * b[0] + a[1] * b[1]) / den, (a[1] * b[0] - a[0] * b[1]) / den


_FLOAT = (complex, lambda a, b: a + b, lambda a, b: a * b,
          lambda a, b: a / b)
_EXACT = (exact, exact_add, exact_mul, exact_div)


def naive_block_value(block, point, orders, exact_arithmetic=False):
    """The mixed partial `orders` of a poly.Block at one point (w, then z
    coordinates), one scalar at a time: the block's recurrence on each
    axis, then the sum of coefficient times basis products over its
    columns.  With exact_arithmetic the scalars are (re, im) Fraction pairs
    built from the exact values of the block's floats."""
    num, add, mul, div = _EXACT if exact_arithmetic else _FLOAT
    rows = []
    for j, (x, order) in enumerate(zip(point, orders)):
        ax = block.axes[j]
        c = block.center[j - block.r] if j >= block.r else 0
        scale = num(ax.scale)
        t = div(add(num(x), num(-complex(c))), scale)
        start = block.starts[j]
        H = [[num(ax.H[i, k]) for i in range(k + 2)] for k in range(ax.degree)]
        R = [[None] * (ax.degree + 1) for _ in range(order + 1)]
        for o in range(order + 1):
            power = num(math.perm(start, o))
            for _ in range(o):
                power = div(power, scale)
            for _ in range(start - o):
                power = mul(power, t)
            R[o][0] = div(power, num(ax.norm))
        for k in range(ax.degree):
            for o in range(order + 1):
                v = mul(t, R[o][k])
                for i in range(k + 1):
                    v = add(v, mul(num(-1), mul(H[k][i], R[o][i])))
                if o:
                    v = add(v, mul(div(num(o), scale), R[o - 1][k]))
                R[o][k + 1] = div(v, H[k][k + 1])
        rows.append(R[order])
    total = num(0)
    for g, coef in zip(block.columns.tolist(), block.coefs):
        term = num(coef)
        for j, gj in enumerate(g):
            term = mul(term, rows[j][gj])
        total = add(total, term)
    return total


def ladder_scenario(T, outer):
    """T alternating +-1 stages on |z - outer| <= 0.15, inner radii
    0.5 + 0.05 s, tolerance 1e-2, budgets 12..120 (the benchmark's ladder)."""
    def disk(center, radius):
        return {"type": "disk", "center": [center.real, center.imag],
                "radius": radius}
    return {"name": f"ladder-{T}",
            "domain": [{"type": "open-disk", "center": [0.0, 0.0],
                        "radius": 1.0}],
            "stages": [{"target": {"constant": [(-1.0) ** s, 0.0]},
                        "outer": disk(outer, 0.15),
                        "inner": disk(0j, 0.5 + 0.05 * (s + 1)),
                        "tolerance": 0.01,
                        "budgets": [12, 16, 24, 32, 48, 64, 90, 120]}
                       for s in range(T)]}
