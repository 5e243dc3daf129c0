"""Build expected.json: ranks of D_n(Jac_m(f)) at the zero jet over the
singular origin, for every (f, n, m, field) the workloads ask about.

At the zero jet every d_k(g) with k >= 1 vanishes (each of its terms
holds a jet variable of positive order), so D_n(Jac_m(f)) there is block
diagonal with n + 1 copies of Jac_m(f)(0), and its rank is (n + 1) times
the rank of Jac_m(f)(0).  That rank is computed twice, independently of
jetjac: from the Taylor coefficients of f with the elimination below,
and from sympy derivatives with sympy's rank.  The two must agree.

Run from the repository root (sympy needed, only here):
    python3 perfbench/expected.py
"""

from __future__ import annotations

import json
import math
import sys

import sympy
from sympy.polys.domains import GF
from sympy.polys.matrices import DomainMatrix

import algebra
import workloads


def index_vectors(norm: int, s: int):
    if s == 1:
        yield (norm,)
        return
    for first in range(norm, -1, -1):
        for rest in index_vectors(norm - first, s - 1):
            yield (first,) + rest


def families(s: int, m: int):
    rows = [v for d in range(m) for v in index_vectors(d, s)]
    cols = [v for d in range(1, m + 1) for v in index_vectors(d, s)]
    return rows, cols


def taylor_rank(terms: dict, s: int, m: int, p: int) -> int:
    """Rank of Jac_m(f)(0): its (beta, alpha) entry is the divided-power
    derivative by alpha - beta at 0, the coefficient of x^(alpha - beta)."""
    coeff = {tuple(dict(mono).get((i, 0), 0) for i in range(1, s + 1)): c for mono, c in terms.items()}
    rows, cols = families(s, m)
    a = [
        [
            algebra.reduce(coeff.get(tuple(x - y for x, y in zip(alpha, beta)), 0), p)
            if all(x >= y for x, y in zip(alpha, beta))
            else algebra.reduce(0, p)
            for alpha in cols
        ]
        for beta in rows
    ]
    rank = 0
    for c in range(len(cols)):
        pivot = next((i for i in range(rank, len(a)) if a[i][c]), None)
        if pivot is None:
            continue
        a[rank], a[pivot] = a[pivot], a[rank]
        inv = pow(a[rank][c], -1, p) if p else 1 / a[rank][c]
        for i in range(rank + 1, len(a)):
            factor = a[i][c] * inv
            a[i] = [(x - factor * y) % p if p else x - factor * y for x, y in zip(a[i], a[rank])]
        rank += 1
    return rank


def sympy_rank(source: str, s: int, m: int, p: int) -> int:
    xs = sympy.symbols(f"x1:{s + 1}")
    f = sympy.sympify(source.replace("^", "**"), locals={f"x{i + 1}": x for i, x in enumerate(xs)})
    origin = {x: 0 for x in xs}
    rows, cols = families(s, m)

    def entry(beta, alpha):
        if not all(x >= y for x, y in zip(alpha, beta)):
            return sympy.Integer(0)
        gamma = [x - y for x, y in zip(alpha, beta)]
        d = sympy.diff(f, *[a for pair in zip(xs, gamma) for a in pair if pair[1]]) if any(gamma) else f
        return d.subs(origin) / math.prod(math.factorial(g) for g in gamma)

    mat = sympy.Matrix([[entry(beta, alpha) for alpha in cols] for beta in rows])
    if p == 0:
        return mat.rank()
    return DomainMatrix.from_Matrix(mat).convert_to(GF(p)).rank()


class _Recorder(dict):
    def __missing__(self, key):
        self[key] = None
        return 0


def main() -> int:
    asked = _Recorder()
    workloads.expected_table = lambda: asked
    for name in workloads.WORKLOADS:
        for tiny in (False, True):
            workloads.make_pool(name, 0, 1, tiny)
    table = {}
    for key in sorted(asked):
        name, n_part, m_part, field = key.split(":", 3)
        n, m = int(n_part[2:]), int(m_part[2:])
        p = 0 if field == "Q" else int(field.split(":")[1])
        source = workloads.SINGULAR[name]
        terms = algebra.parse(source, 0)
        s = workloads.base_count(terms)
        own, ref = taylor_rank(terms, s, m, p), sympy_rank(source, s, m, p)
        if own != ref:
            print(f"{key}: Taylor-coefficient rank {own} but sympy rank {ref}", file=sys.stderr)
            return 1
        table[key] = (n + 1) * own
    with open(workloads.EXPECTED_FILE, "w") as fh:
        json.dump({"zero_jet_rank": table}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(table)} ranks to {workloads.EXPECTED_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
