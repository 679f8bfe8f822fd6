"""Seeded inputs and command lists for the benchmark workloads.

Every input is built from `hlra.fixtures` builders and written as a JSON
file; the program under test only sees those files.  A workload is a cycle
of command lists: pass i runs `cycle[i % len(cycle)]`.  Each call carries
its expected exit code and the facts known from how its input was built, so
the checker does not rely only on the program agreeing with itself.
"""

import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction

from hlra import fixtures
from hlra.fileio import canonical_dumps, to_document

DEFAULT_SEED = 0


@dataclass(frozen=True)
class Call:
    argv: tuple
    code: int = 0
    roots: frozenset = None  # exact root set; each root space dim 1 and split yes
    psi: tuple = None  # twist: the emitted psi equals this matrix
    dim_l: int = None  # fiber: the emitted dimL
    fixed: bool = False  # the input does not depend on the seed

    @property
    def key(self):
        return " ".join(self.argv)

    @property
    def files(self):
        return [a for a in self.argv[1:] if a.endswith(".json")]


def _write(directory, name, algebra):
    with open(os.path.join(directory, name), "w", encoding="utf-8") as fh:
        fh.write(canonical_dumps(to_document(algebra)))
    return name


def _root_text(values):
    return "(" + ", ".join(str(Fraction(v)) for v in values) + ")"


def _s_roots(lams):
    """Roots of a product of `_s_like(lam)` blocks: +-lam and +-2 lam on the
    block's own h, zero on the others."""
    out = set()
    for i, lam in enumerate(lams):
        for c in (lam, -lam, 2 * lam, -2 * lam):
            out.add(_root_text([c if j == i else 0 for j in range(len(lams))]))
    return frozenset(out)


def _matrix_json(m):
    return json.dumps([[str(Fraction(x)) for x in row] for row in m])


def _by_format(build):
    """One command list per output format; passes alternate between them."""
    return [build(fmt) for fmt in ("text", "json")]


def enum_s2(seed, directory):
    # Two fix_s-shaped blocks: 8 roots, so ideal enumeration visits all
    # 2^8 root subsets.  Small lambdas keep the cost of one analyze call
    # nearly the same for every seed.
    rng = random.Random(f"enum-s2:{seed}")
    lams = (1, 1) if seed == DEFAULT_SEED else (rng.randint(1, 3), rng.randint(1, 3))
    name = _write(directory, "s2.json", fixtures.product_sum([fixtures._s_like(x) for x in lams]))
    return _by_format(lambda fmt: [Call(("analyze", name, "--format", fmt), roots=_s_roots(lams))])


def wide_s3(seed, directory):
    # Three blocks (dimL 15, 12 roots): validation at n = 15 and 288
    # connection queries; connect never enumerates ideals.
    rng = random.Random(f"wide-s3:{seed}")
    lams = (1, 1, 1) if seed == DEFAULT_SEED else tuple(rng.randint(1, 3) for _ in range(3))
    name = _write(directory, "s3.json", fixtures.product_sum([fixtures._s_like(x) for x in lams]))
    return _by_format(lambda fmt: [Call(("connect", name, "--format", fmt), roots=_s_roots(lams))])


def eigen_big(seed, directory):
    # rational_roots finds candidates by trial division up to sqrt(|a0|).
    # Both families are drawn from narrow ranges that put sqrt(|a0|) near
    # 2.2e6 and 2.0e6, so the cost is the same for every seed.
    rng = random.Random(f"eigen-big:{seed}")
    inputs = []
    for i in range(2):
        lam = 5 * 10**12 + rng.randrange(10**9)  # 13 digits; a0 = lam
        inputs.append((_write(directory, f"b{i}.json", fixtures._b_like(lam)), frozenset({_root_text([lam])})))
    for i in range(2):
        mu = rng.randint(990, 999)  # a0 = 4 mu^4
        roots = frozenset(_root_text([c]) for c in (mu, -mu, 2 * mu, -2 * mu))
        inputs.append((_write(directory, f"s{i}.json", fixtures._s_like(mu)), roots))
    return _by_format(lambda fmt: [Call(("connect", n, "--format", fmt), roots=r) for n, r in inputs])


# Exit codes of the report commands on the bundled fixtures, where not 0:
# fix_c declares no abelian subalgebra, fix_e(2) break the second
# representation identity (a warning unless --strict), and the others have
# [L, J] != 0.
BUNDLED_CODES = {
    ("fix_c", "decompose"): 2,
    ("fix_c", "analyze"): 2,
    ("fix_c", "connect"): 2,
    ("fix_c_split", "j"): 1,
    ("fix_e", "validate --strict"): 1,
    ("fix_e2", "validate --strict"): 1,
    ("fix_p", "j"): 1,
    ("fix_p2", "j"): 1,
    ("fix_s", "j"): 1,
    ("fix_s2", "j"): 1,
    ("fix_t", "j"): 1,
}
REPORTS = (("validate",), ("validate", "--strict"), ("decompose",), ("analyze",), ("connect",), ("j",))


def mixed_small(seed, directory):
    # Many small calls, where per-call overhead in fileio, reporting and
    # cli dominates, with the write path running beside the reads.
    fixtures.write_bundled(directory)
    rng = random.Random(f"mixed-small:{seed}")
    draws = []
    while len(draws) < 3:
        h, g, f = fixtures.random_instance(rng.randrange(2**32))
        if h.dimL <= 8:
            draws.append((_write(directory, f"draw{len(draws)}.json", h), g, f))

    def build(fmt):
        calls = []
        for name in sorted(fixtures.BUNDLED):
            for cmd in REPORTS:
                if name == "fix_s2" and cmd[0] in ("decompose", "analyze"):
                    continue
                code = BUNDLED_CODES.get((name, " ".join(cmd)), 0)
                calls.append(Call((cmd[0], f"{name}.json", *cmd[1:], "--format", fmt), code=code, fixed=True))
        # random_instance draws are valid and (g, f) is an endomorphism
        # pair of each, so all of these succeed by construction
        for name, g, f in draws:
            calls.append(Call(("validate", name, "--format", fmt)))
            calls.append(Call(("connect", name, "--format", fmt)))
            calls.append(Call(("twist", name, "--psi", _matrix_json(f), "--phi", _matrix_json(g)), psi=f))
            calls.append(Call(("morphism", name, name, "--g", _matrix_json(g), "--f", _matrix_json(f), "--format", fmt)))
        calls.append(Call(("fiber", "fix_b.json", "fix_b.json"), dim_l=4, fixed=True))
        calls.append(Call(("fiber", "fix_e.json", "fix_e.json"), code=1, fixed=True))
        return calls

    return _by_format(build)


WORKLOADS = {
    "enum-s2": enum_s2,
    "wide-s3": wide_s3,
    "eigen-big": eigen_big,
    "mixed-small": mixed_small,
}

# The layer each single-instance workload was chosen to stress, as the
# per-layer metric that should take most of a traced pass.
STRESSES = {
    "enum-s2": "decomposition.enumerate_ideals.total_s",
    "wide-s3": "model.validate_hlr.total_s",
    "eigen-big": "linalg.rational_roots.self_s",
}
