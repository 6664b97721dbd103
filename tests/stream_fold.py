"""The stream fold, the reference that ``treecore.forest_folds`` is checked against.

Usage: PYTHONPATH=src python3 tests/stream_fold.py M [M ...]

``_forest_fold`` folds one ordered forest, component by component, and
``stream_folds`` counts the folds of every forest that ``TreeEnumerator``
streams on [m].  The script exits 0 when ``forest_folds(m)`` equals
``stream_folds(m)`` as an ordered list of items, for each M given, in both
variants, and 1 otherwise, naming the first that differs.  At M = 7 the
stream folds 2,162,160 forests per variant.  Uses only the stdlib and ramapoly.
"""

from __future__ import annotations

import sys
from collections import Counter
from itertools import repeat
from typing import Sequence

from ramapoly.treecore import PlaneTree, TreeEnumerator, forest_folds


def _forest_fold(forest: Sequence[PlaneTree], really: bool) -> tuple[int, int | None, int, int]:
    """(imp, young_at_1, eld, mask) of a forest on [m]: its improper edges,
    young(1) and elder vertices, elder top components included, and bit beta(c)
    of mask set for each young top component c (the really-variant reads the
    really-fields and the top root labels); labels must be small, as 1 << beta."""
    imp = eld = mask = 0
    y1 = min_right = None
    for c in reversed(forest):
        if really:
            _, c_eld, c_imp, c_y1 = c._really()
            eld += c_eld
            imp += c_imp
            key = c.label
        else:
            eld += c.eld_sub
            imp += c.imp_sub
            c_y1 = c.young_at_1
            key = c.beta
        if c_y1 is not None:
            y1 = c_y1
        if min_right is not None and min_right < key:
            eld += 1
        else:
            mask |= 1 << c.beta
            min_right = key
    return imp, y1, eld, mask


def stream_folds(m: int, really: bool, enumerator: TreeEnumerator | None = None) -> Counter:
    """The forests on [m] counted by ``_forest_fold``, keys in stream order."""
    enum = enumerator or TreeEnumerator()
    return Counter(map(_forest_fold, enum.forests(frozenset(range(1, m + 1))), repeat(really)))


def main(argv: list[str]) -> int:
    if not argv or not all(arg.isdecimal() for arg in argv):
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    for m in map(int, argv):
        for really in (False, True):
            want = list(stream_folds(m, really).items())
            if list(forest_folds(m, really=really).items()) != want:
                print(f"forest_folds({m}, really={really}) differs from the stream fold")
                return 1
            print(f"forest_folds({m}, really={really}): {len(want)} keys, as the stream")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
