"""Validation snapshot: identity checks on valid and broken algebras.

The report gate (tests/golden_reports.json) only sees the bundled files,
which are valid, so it pins almost no failure detail.  This snapshot runs
`validate_hlr` (strict and relaxed) and `check_morphism` on every bundled
file with dimL <= 5, unchanged and under 8 seeded single-entry mutations of
bracket, mul, action, anchor, psi or phi, and keeps the sha256 of each
report's (key, status, detail) lines.  A change to any check, its order, its
first violation or its detail format fails this test.  After an intended
change, re-record with

    PYTHONPATH=src python tests/test_golden_validation.py
"""

import random
from collections.abc import Mapping
from dataclasses import replace
from fractions import Fraction
from itertools import product
from pathlib import Path

from hlra import fixtures
from hlra.model import RELAXED, STRICT, check_morphism, tensor_shapes, validate_hlr

from golden import assert_unchanged, record, sha256

GOLDEN = Path(__file__).with_name("golden_validation.json")
FIELDS = ("bracket", "mul", "action", "anchor", "psi", "phi")
MUTATIONS = 8
SHIFTS = (Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2))


def _entries(h, field):
    """Index tuples of every scalar entry of a field, zero ones included,
    in row-major order."""
    shapes = {**tensor_shapes(h.dimL, h.dimA), "psi": (h.dimL, h.dimL), "phi": (h.dimA, h.dimA)}
    return list(product(*map(range, shapes[field])))


def _shifted(value, idx, by):
    if isinstance(value, Mapping):
        return {**value, idx: value.get(idx, 0) + by}
    if not idx:
        return value + by
    i = idx[0]
    return value[:i] + (_shifted(value[i], idx[1:], by),) + value[i + 1 :]


def mutants(name, h):
    """(tag, algebra) for the input and its seeded single-entry mutations."""
    out = [(f"{name}", h)]
    fields = [f for f in FIELDS if _entries(h, f)]
    rng = random.Random(f"validation {name}")
    for m in range(MUTATIONS if fields else 0):
        field = rng.choice(fields)
        idx = rng.choice(_entries(h, field))
        by = rng.choice(SHIFTS)
        out.append((f"{name}#{m} {field}{list(idx)} by {by}", replace(h, **{field: _shifted(getattr(h, field), idx, by)})))
    return out


def _random_matrix(rng, n):
    return tuple(tuple(Fraction(rng.choice((0, 0, 0, 1, -1, 2))) for _ in range(n)) for _ in range(n))


def _digest(results):
    return sha256("".join(f"{r.key}\t{r.status}\t{r.detail}\n" for r in results))


def validation_digests():
    out = {}
    for name, make in sorted(fixtures.BUNDLED.items()):
        h = make()
        if h.dimL > 5:
            continue
        for tag, m in mutants(name, h):
            out[f"{tag} strict"] = _digest(validate_hlr(m, strictness=STRICT).checks)
            out[f"{tag} relaxed"] = _digest(validate_hlr(m, strictness=RELAXED).checks)
            rng = random.Random(f"morphism {tag}")
            g, f = _random_matrix(rng, m.dimA), _random_matrix(rng, m.dimL)
            out[f"{tag} morphism"] = _digest(check_morphism(g, f, m, m))
    return out


def test_every_validation_report_is_unchanged():
    assert_unchanged(GOLDEN, validation_digests())


if __name__ == "__main__":
    record(GOLDEN, validation_digests())
