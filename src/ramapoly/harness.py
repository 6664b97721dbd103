"""Verification harness: the identity registry and suite orchestration.

Every combinatorial statement the library implements has a named entry here.
An identity runner yields (instance, status, payload) triples where status is
"pass" or "fail"; payloads become the failure witness (for fails) or
informational notes.  A runner that hits a hard cap raises BoundExceeded;
``run_identity`` records that as one "bound-exceeded" instance and ends the
identity there.  ``run_suite`` executes a selection, optionally across
processes, and aggregates exit status: pass only when every instance of every
selected identity passes.

An identity's default bounds are its runner's keyword defaults, read by
``_register``; they keep the whole suite within a few minutes on commodity
hardware, and can be overridden per identity (``max_n`` and friends) through
``run_suite`` or the CLI's key=value config file.
"""

from __future__ import annotations

import gc
import inspect
import os
import random
import time
from collections import Counter
from dataclasses import dataclass, field
from functools import partial, reduce
from itertools import combinations_with_replacement, permutations as iter_permutations
from math import comb, factorial
from operator import add, sub
from typing import Callable, Iterator

from . import bijections, forests, halfmobile, qpolys, treecore
from .polyring import Poly, poly_prod
from .qpolys import QK_VARS, Q_VARS

Payload = dict | None
Outcome = tuple[dict, str, Payload]

PASS = "pass"
FAIL = "fail"
SKIP = "bound-exceeded"


@dataclass
class InstanceResult:
    identity: str
    instance: dict
    status: str
    witness: dict | None
    info: dict | None
    seconds: float

    def to_obj(self) -> dict:
        return {"identity": self.identity, "instance": self.instance,
                "status": self.status, "witness": self.witness,
                "info": self.info, "seconds": round(self.seconds, 4)}


@dataclass
class VerificationReport:
    identity: str
    params: dict
    instances: list[InstanceResult] = field(default_factory=list)

    @property
    def status(self) -> str:
        statuses = {r.status for r in self.instances}
        if FAIL in statuses:
            return FAIL
        if SKIP in statuses:
            return SKIP
        return PASS

    @property
    def seconds(self) -> float:
        return sum(r.seconds for r in self.instances)


@dataclass(frozen=True)
class IdentityEntry:
    name: str
    description: str
    defaults: dict
    runner: Callable[..., Iterator[Outcome]]


def _check(instance: dict, witness: Payload, info: Payload = None) -> Outcome:
    """Pass (with the optional info) when there is no failure witness."""
    if witness is None:
        return instance, PASS, info
    return instance, FAIL, witness


def _cmp(instance: dict, lhs: Poly | int, rhs: Poly | int, info: Payload = None) -> Outcome:
    return _check(instance, qpolys.mismatch(lhs, rhs), info)


# The enumerations a suite run shares, in its own process or in each pool
# worker; None otherwise, so a lone runner or run_identity computes them
_memo: dict | None = None


def _open_memo() -> None:
    """Open an empty run memo here: a serial run's, or a pool worker's for its life."""
    global _memo
    _memo = {}


def _once(key: tuple, compute: Callable[[], object]):
    """compute(), or the value it gave for key earlier in the same suite run.
    An exception (BoundExceeded) propagates and is not kept."""
    if _memo is None:
        return compute()
    if key not in _memo:
        _memo[key] = compute()
    return _memo[key]


def _census(n: int, root: int | None, *,
            really: bool = False) -> dict[int, dict[tuple[int, int], int]]:
    """The weight census of the trees on [n], expanded from the fold of the
    forests on [n - 1], which a suite run folds once per variant: the root-1
    and the free census on [n] read one fold.  [n] is checked against the
    label cap first, so a census past the cap folds nothing."""
    treecore.check_label_count(n)
    folds = _once(("folds", n - 1, really), lambda: treecore.forest_folds(n - 1, really=really))
    return treecore.weight_census(n, root, really=really, folds=folds)


def _rooted_polys(n: int) -> dict[int, Poly]:
    """The multivariate sums of the trees on [n] by root, once per run memo,
    from one DP, ``treecore.rooted_generating_poly``, which checks [n] against
    the label cap first and builds no tree.  Every statistic compares labels
    only, so the trees rooted at r are those rooted at n relabeled in order
    (n to r, b to b + 1 for r <= b < n), and their sum is the root-n sum with
    its exponent slots so permuted."""
    def by_root() -> dict[int, Poly]:
        top = treecore.rooted_generating_poly(n)
        return {r: Poly(top.universe, {e[:r - 1] + e[n - 1:n] + e[r - 1:n - 1] + e[n:]: c
                                       for e, c in top.terms.items()})
                for r in range(1, n + 1)}
    return _once(("rooted-polys", n), by_root)


# -- section 1 / 6 / 7 symbolic identities -------------------------------------


def _run_symbolic(checks: tuple[tuple[str, str | None], ...], first_n: int,
                  max_n: int) -> Iterator[Outcome]:
    """Per n from first_n, one ``verify_identity`` instance per (identity,
    check label) pair; a pair without a label gives the instance {"n": n}."""
    for n in range(first_n, max_n + 1):
        for name, check in checks:
            instance = {"n": n} if check is None else {"n": n, "check": check}
            yield _check(instance, qpolys.verify_identity(name, n))


# checks and first_n are bound positionally: _register reads the keywords left
run_thm_1_1 = partial(_run_symbolic, (("duality", "substitution"),
                                      ("mainconj", "coefficient-level")), 1, max_n=20)
run_eq_expansion = partial(_run_symbolic, (("expansion", None),), 1, max_n=16)
run_eq_special2 = partial(_run_symbolic, (("special2", None),), 1, max_n=20)
run_eq_factor = partial(_run_symbolic, (("factor", None),), 1, max_n=20)


def run_eq_qnxt(max_n: int = 20, ones_max_n: int = 20) -> Iterator[Outcome]:
    yield from _run_symbolic((("qnxt", None),), 1, max_n)
    for n in range(1, ones_max_n + 1):
        qpolys.check_symbolic_n(n)
        value = qpolys.q_n(n).evaluate({"x": 1, "y": 1, "z": 1, "t": 1})
        yield _cmp({"n": n, "check": "all-ones"}, value, factorial(n) * qpolys.catalan(n))


def run_eq_lambert(max_n: int = 20) -> Iterator[Outcome]:
    for n in range(1, max_n + 1):
        qpolys.check_symbolic_n(n)
        r = qpolys.r_n(n)
        checks = {
            "constant-term": (r.coefficient((0,)), factorial(n - 1)),
            "leading-coefficient": (r.coefficient((n - 1,)),
                                    qpolys.odd_double_factorial(2 * n - 3)),
            "value-at-one": (r.evaluate({"y": 1}), n ** (n - 1)),
        }
        for check, (got, expected) in checks.items():
            yield _cmp({"n": n, "check": check}, got, expected)
        spec_r = qpolys.q_n(n).substitute({"x": 0, "z": 1, "t": 0})
        yield _cmp({"n": n, "check": "q-specialization"}, spec_r, r.extend(Q_VARS))
        spec_p = qpolys.q_n(n).substitute({"z": 1, "t": 0})
        yield _cmp({"n": n, "check": "p-specialization"},
                   spec_p, qpolys.p_n(n).extend(Q_VARS))


run_lemma_6_1 = partial(_run_symbolic, (("rec2", "rec2"), ("rec3", "rec3")), 2, max_n=20)
run_lemma_6_2 = partial(_run_symbolic, (("diff", None),), 2, max_n=20)
run_remark_6 = partial(_run_symbolic, (("operator-remark", None),), 1, max_n=16)
run_lemma_4_1 = partial(_run_symbolic, (("chu", None),), 1, max_n=20)


def run_eq_gs(max_n: int = 20, enum_max_n: int = 5) -> Iterator[Outcome]:
    yield from _run_symbolic((("gessel-seo", "product"),), 1, max_n)
    uni = ("x", "z", "t")
    x, z, t = (Poly.var(uni, v) for v in uni)
    for n in range(1, enum_max_n + 1):
        counts: Counter[tuple[int, int]] = Counter()   # pooled over the improper count
        for cells in _census(n + 1, 1).values():
            counts.update(cells)
        total = Poly.zero(uni)
        for (y1, e), count in counts.items():
            total = total + x ** y1 * (t - z) ** e * z ** (n - y1 - e) * count
        expect = x * poly_prod((x + z * (n - k) + t * k for k in range(1, n)), uni)
        yield _cmp({"n": n, "check": "enumeration"}, total, expect)


# -- section 2: plane-tree interpretations ---------------------------------------


def run_eq_general(max_n: int = 7) -> Iterator[Outcome]:
    uni = ("t",)
    t = Poly.var(uni, "t")
    for n in range(1, max_n + 1):
        treecore.check_label_count(n)   # n! permutations: the label cap bounds n
        counts: dict[int, int] = {}
        for perm in iter_permutations(range(1, n + 1)):
            g = treecore.gdes(perm)
            counts[g] = counts.get(g, 0) + 1
        lhs = Poly(uni, {(g,): c for g, c in counts.items()})
        rhs = poly_prod((t * j + 1 for j in range(1, n)), uni)
        yield _cmp({"n": n}, lhs, rhs)


def run_eq_equiv(max_n: int = 7) -> Iterator[Outcome]:
    """Per n, the first k at which the root-1 sum and the shifted free sum differ."""
    x = Poly.var(QK_VARS, "x")
    t = Poly.var(QK_VARS, "t")
    for n in range(1, max_n + 1):
        left = _census(n + 1, 1)
        right = _census(n, None)
        witness = None
        for k in range(n):
            lhs = treecore.census_poly(left.get(k, {}), mode="o")
            rhs = treecore.census_poly(right.get(k, {}), mode="p").substitute(
                {"x": x + t + 1})
            witness = qpolys.mismatch(lhs, rhs)
            if witness is not None:
                break
        yield _check({"n": n}, witness)


def _run_census_table(rooted: bool, max_n: int) -> Iterator[Outcome]:
    """The rows Q_{n,k} read off the root-1 trees on [n+1] (mode "o") or off
    the free trees on [n] (mode "p", against the shifted row)."""
    for n in range(1, max_n + 1):
        if rooted:
            census, mode = _census(n + 1, 1), "o"
        else:
            census, mode = _census(n, None), "p"
        for k in sorted(set(census) | set(range(n))):
            yield _cmp({"n": n, "k": k}, treecore.census_poly(census.get(k, {}), mode),
                       qpolys.q_nk(n, k, shifted=not rooted))


run_thm_2_2 = partial(_run_census_table, True, max_n=7)
run_thm_2_3 = partial(_run_census_table, False, max_n=8)


REFINED_CUTOFF_2_4 = 3   # the per-improper-count refinement is false above this


def run_cor_2_4(max_n: int = 7) -> Iterator[Outcome]:
    """The really-elder variant sums.

    What is asserted: the sums pooled over all improper counts equal the
    pooled table row (they follow from the child-reordering bijection, which
    transports eld and every young value), and the per-count refinement for
    n <= 3 where it does hold.  The printed statement refines by the count of
    really improper edges; that refinement fails from n = 4 on (for either
    reading of really-improper) and the difference polynomial is reported
    per n instead of asserted, as is the cleared comparison for the printed
    P-side exponent (the "-1" that contradicts the shifted-table theorem).
    """
    x = Poly.var(QK_VARS, "x")
    t = Poly.var(QK_VARS, "t")
    for n in range(1, max_n + 1):
        pooled_table = reduce(add, (qpolys.q_nk(n, k) for k in range(n)))
        sides = []
        for side, size, root, mode in (("root-1", n + 1, 1, "o"), ("free", n, None, "p")):
            census = _census(size, root, really=True)
            rows = {k: treecore.census_poly(cells, mode) for k, cells in census.items()}
            if root is None:
                rows = {k: row.substitute({"x": x + t + 1}) for k, row in rows.items()}
            pooled = reduce(add, rows.values())
            info = None if root else {
                "printed_exponent_variant_matches": pooled == (x + t + 1) * pooled_table}
            yield _cmp({"n": n, "side": side, "check": "pooled"}, pooled, pooled_table, info)
            sides.append((side, rows))
        for k in sorted(set(range(n)).union(*(rows for _, rows in sides))):
            table = qpolys.q_nk(n, k)
            for side, rows in sides:
                lhs = rows.get(k, Poly.zero(QK_VARS))
                if n <= REFINED_CUTOFF_2_4:
                    yield _cmp({"n": n, "k": k, "side": side, "check": "refined"}, lhs, table)
                else:
                    note = {"refined_statement_holds": lhs == table,
                            "difference": (lhs - table).render()}
                    yield ({"n": n, "k": k, "side": side, "check": "refined-reported"}, PASS, note)


def run_prop_2_5(enum_max_n: int = 8, count_max_n: int = 8) -> Iterator[Outcome]:
    x = Poly.var(QK_VARS, "x")
    t = Poly.var(QK_VARS, "t")
    for n in range(1, count_max_n + 1):
        product = poly_prod((x + k + t * k for k in range(n - 1)), QK_VARS)
        yield _cmp({"n": n, "check": "table-product"},
                   qpolys.q_nk(n, 0, shifted=True), product)
        if n <= enum_max_n:
            census = _census(n, None)
            yield _cmp({"n": n, "check": "enumeration"},
                       treecore.census_poly(census.get(0, {}), "p"), product)
        yield _cmp({"n": n, "check": "increasing-plane"},
                   treecore.count_increasing_trees(n, plane=True),
                   qpolys.odd_double_factorial(2 * n - 3))
        yield _cmp({"n": n, "check": "increasing-rooted"},
                   treecore.count_increasing_trees(n, plane=False), factorial(n - 1))


# -- section 3: half-mobile forests ------------------------------------------------


def run_thm_3_4(max_n: int = 7) -> Iterator[Outcome]:
    """The half-mobile census by its DP, per improper count and in three
    variables.  The forests on [n] are the theta images of the root-1 plane
    trees on [n + 1], so [n + 1] is checked against the label cap first."""
    for n in range(1, max_n + 1):
        treecore.check_label_count(n + 1)
        family = halfmobile.hm_generating_poly(n)
        for k in sorted({e[1] for e in family.terms} | set(range(n))):
            row = Poly(QK_VARS, {(e[0], e[2]): c for e, c in family.terms.items() if e[1] == k})
            yield _cmp({"n": n, "k": k}, row, qpolys.q_nk(n, k))
        yield _cmp({"n": n, "check": "three-variable"},
                   family.extend(Q_VARS), qpolys.q_n(n).substitute({"z": 1}))


# -- section 4: enumeration theorems -------------------------------------------------


def _symmetric_sum(uni: tuple[str, ...], n: int) -> Poly:
    return reduce(lambda a, b: a + b,
                  (Poly.var(uni, f"x{i}") for i in range(1, n + 1)))


def run_thm_4_3(max_n: int = 8) -> Iterator[Outcome]:
    for n in range(1, max_n + 1):
        uni = treecore.multivar_universe(n)
        s = _symmetric_sum(uni, n)
        t = Poly.var(uni, "t")
        # the free sum is the rooted sums added up: the same trees, split by root
        lhs = reduce(add, _rooted_polys(n).values())
        rhs = poly_prod((s + t * k for k in range(n - 1)), uni)
        yield _cmp({"n": n}, lhs, rhs)


def run_thm_4_gen_on(max_n: int = 8) -> Iterator[Outcome]:
    for n in range(2, max_n + 1):
        uni = treecore.multivar_universe(n)
        s = _symmetric_sum(uni, n)
        t = Poly.var(uni, "t")
        tail = poly_prod((s + t * k for k in range(1, n - 1)), uni)
        for r, lhs in _rooted_polys(n).items():
            yield _cmp({"n": n, "r": r}, lhs, Poly.var(uni, f"x{r}") * tail)


def run_cor_roots(max_n: int = 8) -> Iterator[Outcome]:
    for n in range(2, max_n + 1):
        uni = treecore.multivar_universe(n)
        by_root = _rooted_polys(n)
        for r in range(1, n + 1):
            for s in range(r + 1, n + 1):
                lhs = by_root[r] * Poly.var(uni, f"x{s}")
                rhs = by_root[s] * Poly.var(uni, f"x{r}")
                yield _cmp({"n": n, "r": r, "s": s}, lhs, rhs)


def run_lemma_4_2(instances: int = 200, max_n: int = 8, seed: int = 20260811) -> Iterator[Outcome]:
    rng = random.Random(seed)
    # unranking needs no cap, but max_n is an enumeration bound like any other
    treecore.check_label_count(max_n)
    sizes = list(range(4, max_n + 1))
    # each trial makes the random calls that choosing from the list of every
    # tree on [n], then from the drawn tree's n - 1 edges, made, and unranks
    # the drawn tree from its position in the stream
    for trial in range(instances):
        n = rng.choice(sizes)
        tree = treecore.unrank(range(1, n + 1), rng.randrange(n * treecore.forest_count(n - 1)))
        i, j = tree.edges()[rng.randrange(n - 1)]
        uni = treecore.multivar_universe(n)
        t = Poly.var(uni, "t")
        lhs = Poly(uni, Counter(treecore.multivar_exponents(member, n)
                                for member in bijections.ij_class(tree, i, j)))
        xi = Poly.var(uni, f"x{i}")
        base = xi + Poly.var(uni, f"x{j}") + t
        local = Poly.zero(uni)
        for member in bijections.i_class(bijections.contract(tree, i, j), i):
            inode = member.find(i)
            eld_i = len(inode.children) - inode.young_self
            local = local + base ** inode.young_self * t ** eld_i
        # the rest: the tree's exponents with i's and j's young and eld taken off
        exps = list(treecore.multivar_exponents(tree, n))
        for v in (tree.find(i), tree.find(j)):
            exps[v.label - 1] = 0
            exps[-1] -= len(v.children) - v.young_self
        rhs = xi * local * Poly(uni, {tuple(exps): 1})
        yield _cmp({"trial": trial, "n": n, "i": i, "j": j}, lhs, rhs)


def run_cor_catalan(max_vertices: int = 8) -> Iterator[Outcome]:
    for m in range(1, max_vertices + 1):
        # the free census's cells count its trees; a suite run expands it from a kept fold
        count = sum(sum(cells.values()) for cells in _census(m, None).values())
        yield _cmp({"vertices": m, "check": "labeled"},
                   count, factorial(2 * m - 2) // factorial(m - 1))
        unlabeled = qpolys.catalan(m - 1)
        ok = count % factorial(m) == 0 and count // factorial(m) == unlabeled
        yield _check({"vertices": m, "check": "unlabeled"},
                     None if ok else {"lhs": str(count), "rhs": f"{unlabeled}*{m}!"})


def _leaf_statistics(m: int) -> tuple[dict[int, int], Counter[int]]:
    """The trees on [m] by leaf count, and by k the trees whose leaf set is
    exactly {1, ..., k}, from the degree census of the forests on [m - 1]
    (``_degseq_census``, which builds no forest); [m] must be non-empty and
    is checked against the label cap first.

    A leaf is a label of degree 0, and a leaf count never reads the root, so
    each forest counts once per root, the empty forest (m = 1) as one leaf.
    A tree whose leaf set is {1, ..., k} has k distinct leaves, none above k,
    and its root above k (with m >= 2 the forest under the root is never
    empty, so its leaves are the tree's); relabeled in order, its forest is a
    forest on [m - 1] with that same leaf set, k zero entries all among the
    first k, and exactly the m - k roots above k carry it."""
    treecore.check_label_count(m)
    treecore._checked(range(1, m + 1), None)
    profile: dict[int, int] = {}
    exact: Counter[int] = Counter()
    for degrees, count in _degseq_census(m - 1).items():
        leaves = degrees.count(0)
        profile[leaves or 1] = profile.get(leaves or 1, 0) + m * count
        if not any(degrees[:leaves]):
            exact[leaves] += (m - leaves) * count
    return dict(sorted(profile.items())), exact


def run_cor_narayana(max_vertices: int = 8, leafset_max_vertices: int = 8) -> Iterator[Outcome]:
    """Leaf profiles against Narayana numbers, exact leaf sets against
    leaf_set_count, both read off the degree census of the forests on
    [m - 1] (``_leaf_statistics``), which a suite run shares with
    ``cor-planted`` and ``cor-plane``."""
    for m in range(2, max_vertices + 1):
        profile, exact = _leaf_statistics(m)
        n = m - 1
        for k in sorted(set(profile) | set(range(1, n + 1))):
            yield _cmp({"vertices": m, "k": k},
                       profile.get(k, 0), qpolys.narayana(n, k) * factorial(m))
        for k in range(1, n + 1):
            got = treecore.leaf_set_count(n, k)
            yield _cmp({"vertices": m, "k": k, "check": "inclusion-exclusion"},
                       got, factorial(n) * comb(n - 1, k - 1))
            if m <= leafset_max_vertices:
                yield _cmp({"vertices": m, "k": k, "check": "exact-leaf-set"}, exact[k], got)


# -- forests -----------------------------------------------------------------------


def _degree_sequences(n: int, total: int) -> Iterator[tuple[int, ...]]:
    """The sequences of n nonnegative parts summing to total, in lexicographic
    order: the parts are the gaps between n - 1 cut points in 0..total."""
    return (tuple(map(sub, cuts + (total,), (0,) + cuts))
            for cuts in combinations_with_replacement(range(total + 1), n - 1))


def _degseq_census(n: int) -> Counter[tuple[int, ...]]:
    """The plane forests on [n] counted by ordered degree sequence, once per
    run memo; [n] is checked against the label cap first."""
    treecore.check_label_count(n)
    return _once(("degseq", n), lambda: forests.degree_census(n))


def _type_table(n: int) -> Counter[tuple[int, ...]]:
    """The planted forests on [n] counted by type vector, the types in order of
    their component count and then of their first degree sequence."""
    table: Counter[tuple[int, ...]] = Counter()
    for k in range(1, n + 1):
        for d in _degree_sequences(n, n - k):
            table[forests.degree_type(d)] += forests.planted_count(d)
    return table


def run_cor_planted(enum_max_n: int = 8, cayley_max_n: int = 7) -> Iterator[Outcome]:
    for n in range(2, enum_max_n + 1):
        witness = _first_planted_mismatch(n, _degseq_census(n))
        yield _check({"n": n, "check": "plane-enumeration"}, witness)
    for n in range(1, cayley_max_n + 1):
        treecore.check_label_count(n)
        total = sum(forests.planted_count(d) for d in _degree_sequences(n, n - 1))
        yield _cmp({"n": n, "check": "cayley-sum"}, total, n ** (n - 1))


def _first_planted_mismatch(n: int, by_degseq: dict[tuple[int, ...], int]) -> Payload:
    """Witness for the first degree sequence whose plane-forest count is not
    the planted count times the orderings of components and children."""
    for k in range(1, n + 1):
        for d in _degree_sequences(n, n - k):
            multiplicity = factorial(k)
            for deg in d:
                multiplicity *= factorial(deg)
            witness = qpolys.mismatch(by_degseq.get(d, 0), forests.planted_count(d) * multiplicity)
            if witness is not None:
                return {"d": list(d), **witness}
    return None


def run_cor_type_planted(max_n: int = 6) -> Iterator[Outcome]:
    for n in range(1, max_n + 1):
        treecore.check_label_count(n)   # about 4^n degree sequences: the label cap bounds n
        for r, total in _type_table(n).items():
            yield _cmp({"n": n, "type": list(r)}, forests.type_count(r, "planted"), total)


def run_cor_plane(max_n: int = 8) -> Iterator[Outcome]:
    for n in range(2, max_n + 1):
        # the 57,657,600 forests on [8] have 6,435 degree sequences: type each one once
        by_type: Counter[tuple[int, ...]] = Counter()
        for d, count in _degseq_census(n).items():
            by_type[forests.degree_type(d)] += count
        types = list(_type_table(n))
        witness = None
        for r in types:
            witness = qpolys.mismatch(by_type[r],
                                      forests.type_count(r, "plane-unlabeled") * factorial(n))
            if witness is not None:
                witness = {"type": list(r), **witness}
                break
        yield _check({"n": n, "check": "type-census"}, witness)
        # the plane forests of k trees on n vertices number the ballot number
        # k/(2n-k) C(2n-k, n), Catalan(n - 1) at k = 1; every k is checked, as
        # k = 2 gives Catalan(n - 1) too
        by_k = [sum(forests.type_count(r, "plane-unlabeled")
                    for r in types if forests.type_components(r) == k)
                for k in range(1, n + 1)]
        ballot = [k * comb(2 * n - k, n) // (2 * n - k) for k in range(1, n + 1)]
        yield _cmp({"n": n, "check": "catalan-telescope"}, by_k, ballot)


def run_thm_5_1(max_n: int = 8, max_r: int = 3) -> Iterator[Outcome]:
    census = partial(_census, root=1)   # the root-1 censuses thm-2-2 reads
    # F^r_n needs n > r, so an r past max_n - 1 has no forest to check
    for r in range(1, min(max_r, max_n - 1) + 1):
        for n in range(r + 1, max_n + 1):
            got = forests.forest_generating_poly(n, r, census)
            for k in sorted(set(got) | set(range(n - r))):
                yield _cmp({"n": n, "r": r, "k": k},
                           got.get(k, Poly.zero(("t",))).extend(QK_VARS),
                           qpolys.q_nk(n - r, k).substitute({"x": r}) * r)


# -- registry ------------------------------------------------------------------------


REGISTRY: dict[str, IdentityEntry] = {}

ALIASES = {
    "eq-rec2": "lemma-6-1",
    "eq-diff": "lemma-6-2",
    "operator": "remark-6",
    "lemma-6-1/eq-rec2": "lemma-6-1",
    "lemma-6-2/eq-diff": "lemma-6-2",
    "remark-6/operator": "remark-6",
}


def _register(name: str, description: str, runner: Callable[..., Iterator[Outcome]]) -> None:
    """Register a runner; its keyword defaults are the identity's default bounds."""
    defaults = {p.name: p.default for p in inspect.signature(runner).parameters.values()}
    REGISTRY[name] = IdentityEntry(name, description, defaults, runner)


_register("thm-1-1", "duality substitution and its coefficient-level reformulation", run_thm_1_1)
_register("eq-expansion", "Q_n(x,y,1,t) equals the y-expansion over the table", run_eq_expansion)
_register("eq-special2", "t = -y collapses Q_n to prod (x + kz)", run_eq_special2)
_register("eq-factor", "y = 0 collapses Q_n to prod (x + kz + kt)", run_eq_factor)
_register("eq-qnxt", "y = z collapses Q_n to prod (x + nz + kt); all-ones value", run_eq_qnxt)
_register("eq-lambert", "one-variable family: special values and Q/P specializations",
          run_eq_lambert)
_register("eq-general", "general-descent distribution over all permutations", run_eq_general)
_register("thm-2-2", "root-1 plane trees weighted x^(young(1)-1) t^eld per improper count",
          run_thm_2_2)
_register("thm-2-3", "plane trees weighted x^young(1) t^eld match the shifted table", run_thm_2_3)
_register("cor-2-4", "really-elder variant sums (printed exponent reported)", run_cor_2_4)
_register("prop-2-5", "no-improper-edge product and increasing-tree counts", run_prop_2_5)
_register("thm-3-4", "half-mobile forest sums per improper count and in three variables",
          run_thm_3_4)
_register("lemma-4-1", "Chu-Vandermonde product variant, fully symbolic", run_lemma_4_1)
_register("lemma-4-2", "equivalence-class factorization on random instances", run_lemma_4_2)
_register("thm-4-3", "multivariate young/eld product over all plane trees", run_thm_4_3)
_register("cor-catalan", "labeled and unlabeled plane-tree counts", run_cor_catalan)
_register("cor-narayana", "leaf-refined counts and the inclusion-exclusion formula",
          run_cor_narayana)
_register("thm-4-gen-on", "rooted refinement of the multivariate product", run_thm_4_gen_on)
_register("cor-roots", "root-exchange symmetry of the rooted sums", run_cor_roots)
_register("cor-planted", "planted forests by ordered degree sequence", run_cor_planted)
_register("cor-type-planted", "planted forests by type vector", run_cor_type_planted)
_register("cor-plane", "plane forests by type vector", run_cor_plane)
_register("thm-5-1", "fixed-root forest sums against the rescaled table", run_thm_5_1)
_register("lemma-6-1", "duality-equivalent recurrences for the table", run_lemma_6_1)
_register("lemma-6-2", "difference identity for the shifted table", run_lemma_6_2)
_register("remark-6", "operator identities behind the direct duality proof", run_remark_6)
_register("eq-equiv", "the two enumeration sums agree under x -> x+t+1", run_eq_equiv)
_register("eq-gs", "product with improper-style weights, symbolic and enumerated", run_eq_gs)


def resolve(name: str) -> IdentityEntry:
    """The registry entry of a name or alias; a KeyError names anything else."""
    canonical = ALIASES.get(name, name)
    if canonical not in REGISTRY:
        raise KeyError(f"unknown identity {name!r} (see `verify --list` for the registry)")
    return REGISTRY[canonical]


def _outcomes(runner: Callable[..., Iterator[Outcome]], params: dict) -> Iterator[Outcome]:
    """The runner's outcomes; a hard cap ends them with one skipped instance."""
    try:
        yield from runner(**params)
    except treecore.BoundExceeded as exc:
        yield {}, SKIP, {"reason": str(exc)}


def identity_params(name: str, overrides: dict | None = None) -> dict:
    """The identity's defaults updated by the overrides, each of which must be
    a known parameter and an ``int`` (no ``bool``), at least 1 unless ``seed``."""
    entry = resolve(name)
    params = dict(entry.defaults)
    for key, value in (overrides or {}).items():
        if key not in params:
            raise KeyError(f"unknown parameter {entry.name}.{key}")
        if type(value) is not int:
            raise ValueError(f"{entry.name}.{key} must be an integer, got {value!r}")
        # lemma-4-2 draws its random trees from pools that start at n = 4
        low = 4 if (entry.name, key) == ("lemma-4-2", "max_n") else 1
        if key != "seed" and value < low:
            raise ValueError(f"{entry.name}.{key} must be >= {low}, got {value}")
        params[key] = value
    return params


def run_identity(name: str, overrides: dict | None = None) -> VerificationReport:
    """Run one identity at its defaults updated by the overrides, timing each
    instance.

    The cyclic garbage collector is paused while the runner runs and resumed
    afterwards if it was on.  What the runners keep (tree and half-mobile
    nodes, tuples, ``Poly`` dicts) is immutable and acyclic, so reference
    counting frees it; the collector would only rescan it as it grows.  A
    stray cycle, such as a caught exception's traceback, is collected once
    the collector resumes.
    """
    entry = resolve(name)
    params = identity_params(name, overrides)
    report = VerificationReport(entry.name, params)
    collecting = gc.isenabled()
    gc.disable()
    try:
        clock = time.perf_counter()
        for instance, status, payload in _outcomes(entry.runner, params):
            now = time.perf_counter()
            witness = payload if status == FAIL else None
            info = payload if status != FAIL else None
            report.instances.append(InstanceResult(entry.name, instance, status,
                                                   witness, info, now - clock))
            clock = now
    finally:
        if collecting:
            gc.enable()
    return report


def check_suite(names: list[str] | None, overrides: dict[str, dict],
                jobs: int) -> tuple[list[str], dict[str, dict]]:
    """The canonical names of the selection (all for None) and the overrides by
    canonical name, an alias's and its identity's merged in the order given,
    once every name, every override entry (its identity selected or not), the
    label cap and ``jobs`` pass.  The CLI and ``run_suite`` resolve through it."""
    targets = [resolve(name).name for name in (list(REGISTRY) if names is None else names)]
    canonical: dict[str, dict] = {}
    for name, params in overrides.items():
        canonical.setdefault(resolve(name).name, {}).update(params)
    for name, params in canonical.items():
        identity_params(name, params)
    treecore.label_cap()
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    return targets, canonical


def run_suite(names: list[str] | None = None,
              overrides: dict[str, dict] | None = None,
              jobs: int = 1) -> list[VerificationReport]:
    """Run the named identities (all by default) in order, each at its defaults
    updated by its overrides, on up to ``jobs`` processes.

    ``check_suite`` resolves the names, merges the overrides and checks every
    one of them, serial or pool, before any identity runs.  A suite run shares
    enumerations through ``_once``: the forest folds (one per forest size and
    variant, which every census of one label set expands), the rooted
    multivariate sums and the degree-sequence census are enumerated once and
    re-read by every later identity that needs them, so such an identity's
    seconds leave out work an earlier one did.  A serial run (``jobs`` 1, or
    clamped to 1 by the selection or the CPU count) keeps the memo until it
    ends, however it ends; each pool worker keeps its own for the pool's life,
    and shares with the identities it runs itself.
    """
    global _memo
    targets, overrides = check_suite(names, overrides or {}, jobs)
    jobs = min(jobs, len(targets), os.cpu_count() or 1)
    if jobs <= 1:
        _open_memo()
        try:
            return [run_identity(name, overrides.get(name)) for name in targets]
        finally:
            _memo = None
    from concurrent.futures import ProcessPoolExecutor  # only a pool run loads multiprocessing
    with ProcessPoolExecutor(max_workers=jobs, initializer=_open_memo) as pool:
        futures = [pool.submit(run_identity, name, overrides.get(name))
                   for name in targets]
        return [f.result() for f in futures]


def suite_status(reports: list[VerificationReport], allow_skip: bool = False) -> int:
    """Exit code: 0 all pass, 1 any failure (or bound-exceeded without allow_skip)."""
    statuses = {r.status for r in reports}
    if FAIL in statuses:
        return 1
    if SKIP in statuses and not allow_skip:
        return 1
    return 0
