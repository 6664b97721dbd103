"""Command-line front end.

Subcommands:

* ``qn --n N``                     canonical text of the four-variable polynomial
* ``qnk --n N [--k K] [--shifted]``  table rows (plain or shifted)
* ``table --which q1|q2 --max-n N``  the full triangle plus per-n sum rows
* ``enumerate --n N [--root R] [--improper K] [--really-improper K]``
* ``stats --input FILE``           statistics bundle for a tree JSON file
* ``bijection --map NAME --input FILE [--i I --j J]``
* ``verify --identity NAME|all [--max-n N] [--jobs J] [--allow-skip]``

Exit codes: 0 everything passed; 1 at least one identity failed or a bound
was exceeded without ``--allow-skip``; 2 usage or input errors.  All output
is deterministic: canonical polynomial text and JSON with sorted keys.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import bijections, halfmobile, harness, qpolys, treecore
from .polyring import PolyError
from .qpolys import BoundExceeded


def _emit(obj) -> None:
    print(json.dumps(obj, sort_keys=True))


def _load_json(path: str):
    try:
        return json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: malformed JSON at line {exc.lineno}, "
                         f"column {exc.colno}") from exc


# -- polynomial emission --------------------------------------------------------


def _check_symbolic_n(flag: str, n: int) -> None:
    if not 1 <= n <= qpolys.MAX_SYMBOLIC_N:
        raise ValueError(f"{flag} must satisfy 1 <= n <= {qpolys.MAX_SYMBOLIC_N}, got {n}")


def cmd_qn(args) -> int:
    _check_symbolic_n("--n", args.n)
    print(qpolys.q_n(args.n).render())
    return 0


def cmd_qnk(args) -> int:
    _check_symbolic_n("--n", args.n)
    if args.k is not None and not 0 <= args.k < args.n:
        raise ValueError(f"--k must satisfy 0 <= k < n = {args.n}, got {args.k}")
    ks = [args.k] if args.k is not None else range(args.n)
    for k in ks:
        poly = qpolys.q_nk(args.n, k, shifted=args.shifted)
        print(f"{args.n},{k}: {poly.render()}")
    return 0


def cmd_table(args) -> int:
    _check_symbolic_n("--max-n", args.max_n)
    shifted = args.which == "q2"
    for n in range(1, args.max_n + 1):
        total = None
        for k in range(n):
            poly = qpolys.q_nk(n, k, shifted=shifted)
            total = poly if total is None else total + poly
            print(f"{n},{k}: {poly.render()}")
        print(f"{n},sum: {total.render()}")
    return 0


# -- enumeration ------------------------------------------------------------------


def cmd_enumerate(args) -> int:
    if args.improper is not None and args.really_improper is not None:
        raise ValueError("give at most one of --improper and --really-improper")
    enum = treecore.TreeEnumerator(treecore.label_cap(args.max_labels, "--max-labels"))
    labels = range(1, args.n + 1)
    if args.count_only:
        # counted from the forests on [n - 1], so no root node is built
        if args.improper is None and args.really_improper is None:
            print(enum.count_trees(labels, args.root))
        else:
            really = args.really_improper is not None
            census = treecore.weight_census(args.n, args.root, really=really, enumerator=enum)
            k = args.really_improper if really else args.improper
            print(sum(census.get(k, {}).values()))
        return 0
    stream = (tree for tree in enum.trees(labels, args.root)
              if (args.improper is None or tree.imp_sub == args.improper)
              and (args.really_improper is None or tree.rimp_sub == args.really_improper))
    # the text of each memo-shared subtree (at most MEMO_LIMIT labels), by id;
    # the node is kept with its text, so its id is not reused while the dict lives
    shared: dict[int, tuple[treecore.PlaneTree, str]] = {}
    for tree in stream:
        print(_render(tree, args.format == "json", shared))
    return 0


def _render(tree: treecore.PlaneTree, as_json: bool,
            shared: dict[int, tuple[treecore.PlaneTree, str]]) -> str:
    """repr(tree), or the sorted-key JSON of tree.to_obj(), reading the text of
    every subtree of at most MEMO_LIMIT labels from ``shared`` or adding it."""
    kept = shared.get(id(tree))
    if kept is not None:
        return kept[1]
    inner = [_render(c, as_json, shared) for c in tree.children]
    if as_json:
        text = f'{{"children": [{", ".join(inner)}], "label": {tree.label}}}'
    else:
        text = f"node({', '.join([str(tree.label), *inner])})"
    if tree.size <= treecore.MEMO_LIMIT:
        shared[id(tree)] = tree, text
    return text


def cmd_stats(args) -> int:
    tree = treecore.tree_from_obj(_load_json(args.input))
    st = treecore.stats(tree)
    _emit({
        "beta": {str(v): b for v, b in st.beta.items()},
        "deg": {str(v): d for v, d in st.deg.items()},
        "young": {str(v): y for v, y in st.young_per_vertex.items()},
        "elder_vertices": sorted(st.elder_vertices),
        "really_elder_vertices": sorted(st.really_elder_vertices),
        "improper_edges": sorted(map(list, st.improper_edges)),
        "really_improper_edges": sorted(map(list, st.really_improper_edges)),
        "eld": st.eld_total,
        "reld": st.reld_total,
        "leaves": sorted(st.leaves),
        "increasing": st.increasing,
    })
    return 0


# -- bijections --------------------------------------------------------------------


def cmd_bijection(args) -> int:
    data = _load_json(args.input)
    name = args.map
    if name in ("psi", "psi-inv") and not isinstance(data, list):
        raise ValueError(f"{args.input}: a permutation must be a JSON array")
    if name == "psi":
        word = bijections.psi(bijections.Permutation(data))
        _emit(list(word))
    elif name == "psi-inv":
        _emit(list(bijections.psi_inv(data).word))
    elif name == "theta":
        _emit(halfmobile.forest_to_obj(halfmobile.theta(treecore.tree_from_obj(data))))
    elif name == "theta-inv":
        _emit(halfmobile.theta_inv(halfmobile.forest_from_obj(data)).to_obj())
    elif name == "phi":
        _emit(bijections.phi(treecore.tree_from_obj(data)).to_obj())
    elif name == "contract":
        if args.i is None or args.j is None:
            raise ValueError("contract needs --i and --j")
        _emit(bijections.contract(treecore.tree_from_obj(data), args.i, args.j).to_obj())
    elif name == "root-swap":
        old = 1 if args.i is None else args.i
        new = 2 if args.j is None else args.j
        _emit(bijections.root_swap(treecore.tree_from_obj(data), old, new).to_obj())
    else:  # pragma: no cover - argparse choices guard this
        raise ValueError(f"unknown map {name!r}")
    return 0


# -- verification -------------------------------------------------------------------


def parse_config(path: str) -> dict[str, dict[str, int]]:
    """key=value lines of the form identity.param=value; '#' starts a comment.
    Keys are canonical names, so the last line for an (identity, param) wins
    however it names the identity; a malformed line, a non-integer value or an
    unknown identity names its line (``harness.check_suite`` checks the rest)."""
    overrides: dict[str, dict[str, int]] = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected identity.param=value")
        key, _, value = line.partition("=")
        ident, _, param = key.strip().rpartition(".")
        if not ident or not param:
            raise ValueError(f"{path}:{lineno}: expected identity.param=value")
        try:
            name = harness.resolve(ident).name
            overrides.setdefault(name, {})[param] = int(value.strip())
        except KeyError:
            raise ValueError(f"{path}:{lineno}: unknown identity {ident!r}") from None
        except ValueError:
            raise ValueError(f"{path}:{lineno}: value must be an integer") from None
    return overrides


def cmd_verify(args) -> int:
    """Run the selection at its defaults updated by the config, merged and
    checked by ``harness.check_suite``, then by ``--max-n``, which beats any
    config entry and is checked before the report file is opened."""
    if args.list:
        for name, entry in harness.REGISTRY.items():
            defaults = " ".join(f"{k}={v}" for k, v in entry.defaults.items())
            print(f"{name:18s} {defaults:34s} {entry.description}")
        return 0
    names = None if args.identity == "all" else args.identity.split(",")
    config = parse_config(args.config) if args.config else {}
    targets, overrides = harness.check_suite(names, config, args.jobs)
    if args.max_n is not None:
        for name in targets:
            defaults = harness.REGISTRY[name].defaults
            main_bound = [key for key in ("max_n", "max_vertices") if key in defaults]
            if main_bound:
                overrides.setdefault(name, {})[main_bound[0]] = args.max_n
        harness.check_suite(targets, overrides, args.jobs)
    report_file = open(args.report, "a") if args.report else None
    try:
        reports = harness.run_suite(targets, overrides, jobs=args.jobs)
        for report in reports:
            for inst in report.instances:
                if report_file:
                    report_file.write(json.dumps(inst.to_obj(), sort_keys=True) + "\n")
                if inst.status != harness.PASS:
                    print(f"{inst.status.upper()} {report.identity} "
                          f"{json.dumps(inst.instance, sort_keys=True)} "
                          f"witness={json.dumps(inst.witness, sort_keys=True)}")
                elif args.verbose:
                    print(f"pass {report.identity} "
                          f"{json.dumps(inst.instance, sort_keys=True)}")
            counts = {s: sum(1 for i in report.instances if i.status == s)
                      for s in (harness.PASS, harness.FAIL, harness.SKIP)}
            summary = (f"{report.status.upper():5s} {report.identity:18s} "
                       f"{counts['pass']:4d} pass {counts['fail']:3d} fail "
                       f"{counts['bound-exceeded']:3d} skipped "
                       f"{report.seconds:7.2f}s")
            print(summary)
            if report_file:
                report_file.write(json.dumps(
                    {"identity": report.identity, "summary": report.status,
                     "params": report.params, "instances": len(report.instances)},
                    sort_keys=True) + "\n")
    finally:
        if report_file:
            report_file.close()
    code = harness.suite_status(reports, allow_skip=args.allow_skip)
    print(f"overall: {'pass' if code == 0 else 'FAIL'} ({len(reports)} identities)")
    return code


# -- parser -----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ramapoly",
        description="Exact plane-tree polynomial families and their verification suite.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("qn", help="print the four-variable polynomial")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_qn)

    p = sub.add_parser("qnk", help="print table entries in {x, t}")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int)
    p.add_argument("--shifted", action="store_true",
                   help="substitute x -> x - t - 1")
    p.set_defaults(func=cmd_qnk)

    p = sub.add_parser("table", help="print the whole triangle with sum rows")
    p.add_argument("--which", choices=["q1", "q2"], required=True,
                   help="q1 = plain table, q2 = shifted table")
    p.add_argument("--max-n", type=int, default=4)
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("enumerate", help="stream plane trees on {1..n}")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--root", type=int)
    p.add_argument("--improper", type=int)
    p.add_argument("--really-improper", type=int, dest="really_improper")
    p.add_argument("--count-only", action="store_true")
    p.add_argument("--format", choices=["json", "text"], default="json")
    p.add_argument("--max-labels", type=int, default=None,
                   help="override the enumeration hard cap")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("stats", help="statistics bundle for a tree JSON file")
    p.add_argument("--input", required=True)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("bijection", help="apply a constructive map to a JSON input")
    p.add_argument("--map", required=True,
                   choices=["theta", "theta-inv", "psi", "psi-inv", "phi",
                            "contract", "root-swap"])
    p.add_argument("--input", required=True)
    p.add_argument("--i", type=int)
    p.add_argument("--j", type=int)
    p.set_defaults(func=cmd_bijection)

    p = sub.add_parser("verify", help="run identity checks")
    p.add_argument("--identity", default="all",
                   help="registry name, comma list, or 'all'")
    p.add_argument("--max-n", type=int, default=None,
                   help="override the main bound of each selected identity")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--allow-skip", action="store_true",
                   help="exit 0 even when bounds were exceeded")
    p.add_argument("--report", help="append JSON-lines records to this file")
    p.add_argument("--config", help="key=value overrides (identity.param=value)")
    p.add_argument("--verbose", action="store_true")
    p.add_argument("--list", action="store_true", help="list registry and exit")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BoundExceeded as exc:
        print(f"bound exceeded: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        return 0
    except RecursionError:
        print("error: input nested too deeply", file=sys.stderr)
        return 2
    except (PolyError, ValueError, KeyError, OSError) as exc:
        # str() of a KeyError is the repr of its message, quotes and all
        print(f"error: {exc.args[0] if isinstance(exc, KeyError) else exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
