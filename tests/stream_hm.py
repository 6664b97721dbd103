"""The theta stream, the reference that ``halfmobile.hm_generating_poly`` is checked against.

Usage: PYTHONPATH=src python3 tests/stream_hm.py N [N ...]

``hm_poly`` sums x^(tree-1) y^imp t^bdeg over any half-mobile forests, and
``stream_hm_poly`` over every forest on [n] that ``halfmobile.enumerate_hm``
streams, as the theta images of the root-1 plane trees on [n + 1].  The
script exits 0 when, for each N given, ``hm_generating_poly(N)`` equals the
stream sum, and 1 otherwise, naming the first term that differs.  At N = 7
the stream converts the 2,162,160 root-1 plane trees on [8].  Uses only the
stdlib and ramapoly.
"""

from __future__ import annotations

import sys
from typing import Iterable

from ramapoly.halfmobile import HM_VARS, HmForest, enumerate_hm, hm_generating_poly, hm_stats
from ramapoly.polyring import Poly


def hm_poly(forests: Iterable[HmForest]) -> Poly:
    """x^(tree-1) y^imp t^bdeg summed over nonempty half-mobile forests."""
    terms: dict[tuple[int, int, int], int] = {}
    for forest in forests:
        st = hm_stats(forest)
        key = (st.tree - 1, st.imp, st.bdeg)
        terms[key] = terms.get(key, 0) + 1
    return Poly(HM_VARS, terms)


def stream_hm_poly(n: int) -> Poly:
    """``hm_poly`` of the streamed half-mobile forests on [n]."""
    return hm_poly(enumerate_hm(n))


def first_difference(got: Poly, want: Poly) -> str | None:
    """The smallest exponent vector whose coefficients differ, with both, or None."""
    for exps in sorted(set(got.terms) | set(want.terms)):
        if got.coefficient(exps) != want.coefficient(exps):
            monomial = "*".join(f"{v}^{e}" for v, e in zip(HM_VARS, exps))
            return f"{monomial}: {got.coefficient(exps)}, the stream {want.coefficient(exps)}"
    return None


def main(argv: list[str]) -> int:
    if not argv or not all(arg.isdecimal() and int(arg) >= 1 for arg in argv):
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    for n in map(int, argv):
        want = stream_hm_poly(n)
        difference = first_difference(hm_generating_poly(n), want)
        if difference is not None:
            print(f"hm_generating_poly({n}) differs from the stream sum at {difference}")
            return 1
        print(f"hm_generating_poly({n}): {len(want.terms)} terms, "
              f"{sum(want.terms.values())} forests, as the stream")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
