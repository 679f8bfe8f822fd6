"""Connectivity of roots and of weights.

Two roots are connected either directly, when one is a sign times a twist
power of the other, or through a finite family of roots and weights whose
twist-adjusted partial sums stay inside the signed root set and finally
reach a signed twist power of the target.  Weight connectivity is the same
idea with plain sums and no twist adjustment.

Witnesses come from one breadth-first walk per source over the signed root
set.  The walk does not depend on the target, so a single walk answers every
target at once: the partitions make one walk per item, and roots_connected
and weights_connected are the same walk with one target.  validate_*_chain
replay a printed chain witness clause by clause, recomputing every displayed
partial sum from its exponent pattern.
"""

from dataclasses import dataclass

from .linalg import vec_add, vec_neg
from .roots import compose_psi_power, format_root, psi_orbit


@dataclass(frozen=True)
class ConnectionWitness:
    kind: str  # "direct" or "chain"
    epsilon: int = 1
    z: int = 0
    elements: tuple = ()
    end_sign: int = 1
    end_power: int = 0

    def describe(self):
        if self.kind == "direct":
            return f"direct epsilon={self.epsilon} z={self.z}"
        elems = " ".join(format_root(e) for e in self.elements)
        return (
            f"chain [{elems}] end_sign={self.end_sign} end_power={self.end_power}"
        )


def _pm(functionals):
    out = set()
    for f in functionals:
        out.add(tuple(f))
        out.add(vec_neg(f))
    return out


def roots_connected(gamma, xi, rd, wd, restrict=None):
    """Witness connecting two roots, or None.

    restrict limits the chain vocabulary: family members come from the
    signed weights plus the signed restricted roots, and intermediate sums
    must stay in the signed restricted roots.  The direct clause always
    uses the full twist orbit.  Chains are searched shortest first and the
    lexicographically least chain at the winning depth is returned.
    """
    return _root_witnesses(gamma, [xi], rd, wd, restrict).get(tuple(xi))


def weights_connected(alpha, beta, rd, wd):
    """Witness connecting two weights, or None.

    Direct clause: beta is alpha or its negative.  Chains start at alpha,
    may pass through signed weights and signed roots, and must land on a
    signed copy of beta.
    """
    return _weight_witnesses(alpha, [beta], rd, wd).get(tuple(beta))


def _root_witnesses(gamma, xis, rd, wd, restrict=None):
    """{xi: witness} for every xi in xis that gamma connects to."""
    gamma = tuple(gamma)
    orbit_g = psi_orbit(gamma, rd)
    direct = {}
    for i, member in enumerate(orbit_g):
        direct.setdefault(member, ConnectionWitness(kind="direct", epsilon=1, z=-i))
        direct.setdefault(vec_neg(member), ConnectionWitness(kind="direct", epsilon=-1, z=-i))

    allowed_roots = set(map(tuple, restrict)) if restrict is not None else set(rd.gamma)
    sigma_set = _pm(allowed_roots)
    family_set = _pm(wd.lam) | sigma_set
    family = sorted(family_set)
    targets = {}
    for xi in map(tuple, xis):
        if xi not in direct:
            ends = {}
            for m, member in enumerate(psi_orbit(xi, rd)):
                ends.setdefault(tuple(member), (1, m))
                ends.setdefault(vec_neg(member), (-1, m))
            targets[xi] = ends
    found = _walk(
        starts=[o for o in orbit_g if tuple(o) in family_set],
        family=family,
        sigma_set=sigma_set,
        targets=targets,
        step=lambda sigma, zeta: compose_psi_power(vec_add(sigma, zeta), -1, rd),
    )
    return found | {xi: direct[xi] for xi in map(tuple, xis) if xi in direct}


def _weight_witnesses(alpha, betas, rd, wd):
    """{beta: witness} for every beta in betas that alpha connects to."""
    alpha = tuple(alpha)
    direct = {alpha: ConnectionWitness(kind="direct", epsilon=1)}
    direct.setdefault(vec_neg(alpha), ConnectionWitness(kind="direct", epsilon=-1))
    sigma_set = _pm(wd.lam) | _pm(rd.gamma)
    found = _walk(
        starts=[alpha],
        family=sorted(sigma_set),
        sigma_set=sigma_set,
        targets={b: {b: (1, 0), vec_neg(b): (-1, 0)} for b in map(tuple, betas) if b not in direct},
        step=vec_add,
    )
    return found | {b: direct[b] for b in map(tuple, betas) if b in direct}


def _walk(starts, family, sigma_set, targets, step):
    """Breadth-first chain walk shared by both relations.

    A chain is a start followed by family members; each step(sum, member)
    must stay in sigma_set until it lands on an endpoint of some item:
    targets maps each item to {endpoint: (end_sign, end_power)}.  The
    frontier never depends on the targets, so one walk serves them all.
    Returns {item: witness} with, for each item reached, the
    lexicographically least chain of the least length.
    """
    hits = {}
    for item, ends in targets.items():
        for end, signed_power in ends.items():
            hits.setdefault(end, {})[item] = signed_power
    found = {}
    paths = {s: (s,) for s in sorted(set(map(tuple, starts)))}
    frontier = sorted(paths)
    depth = 1
    while len(found) < len(targets) and frontier and depth < len(family) + 2:
        best = {}
        next_paths = {}
        for sigma in frontier:
            for zeta in family:
                nxt = step(sigma, zeta)
                if nxt in hits:
                    chain = paths[sigma] + (zeta,)
                    for item, signed_power in hits[nxt].items():
                        if item not in found and (item not in best or chain < best[item][0]):
                            best[item] = (chain, signed_power)
                if nxt in sigma_set and nxt not in paths and nxt not in next_paths:
                    next_paths[nxt] = paths[sigma] + (zeta,)
        for item, (chain, (end_sign, end_power)) in best.items():
            found[item] = ConnectionWitness(
                kind="chain", elements=chain, end_sign=end_sign, end_power=end_power
            )
        paths.update(next_paths)
        frontier = sorted(next_paths)
        depth += 1
    return found


# -- literal replay of a chain ----------------------------------------------


def _displayed_root_sum(seq, p, rd):
    """Partial sum over the first p family members with the printed
    exponents: the first member carries power -(p-1), the j-th member
    (j >= 2, one-based) carries power -(p-j+1)."""
    total = compose_psi_power(seq[0], -(p - 1), rd)
    for i in range(1, p):
        total = vec_add(total, compose_psi_power(seq[i], -(p - i), rd))
    return total


def validate_root_chain(gamma, xi, elements, rd, wd, restrict=None):
    """Clause-by-clause replay of a chain witness.  Returns (ok, reason)."""
    gamma, xi = tuple(gamma), tuple(xi)
    elements = tuple(map(tuple, elements))
    if len(elements) < 2:
        return False, "a chain needs at least two members"
    allowed_roots = set(map(tuple, restrict)) if restrict is not None else set(rd.gamma)
    family_set = _pm(wd.lam) | _pm(allowed_roots)
    for e in elements:
        if e not in family_set:
            return False, f"family member {format_root(e)} is outside the allowed vocabulary"
    if elements[0] not in set(map(tuple, psi_orbit(gamma, rd))):
        return False, "the chain does not start on the twist orbit of the source"
    sigma_allowed = _pm(allowed_roots)
    n = len(elements)
    for p in range(2, n):
        s = _displayed_root_sum(elements, p, rd)
        if s not in sigma_allowed:
            return False, f"partial sum at length {p} leaves the signed root set: {format_root(s)}"
    final = _displayed_root_sum(elements, n, rd)
    endpoints = _pm(psi_orbit(xi, rd))
    if final not in endpoints:
        return False, f"final sum {format_root(final)} misses every signed twist power of the target"
    return True, ""


def validate_weight_chain(alpha, beta, elements, rd, wd):
    alpha, beta = tuple(alpha), tuple(beta)
    elements = tuple(map(tuple, elements))
    if len(elements) < 2:
        return False, "a chain needs at least two members"
    vocab = _pm(wd.lam) | _pm(rd.gamma)
    for e in elements:
        if e not in vocab:
            return False, f"family member {format_root(e)} is outside the allowed vocabulary"
    if elements[0] != alpha:
        return False, "the chain does not start at the source weight"
    total = elements[0]
    for p in range(1, len(elements)):
        total = vec_add(total, elements[p])
        if p < len(elements) - 1 and total not in vocab:
            return False, f"partial sum at length {p + 1} leaves the vocabulary: {format_root(total)}"
    if total not in (beta, vec_neg(beta)):
        return False, f"final sum {format_root(total)} is not a signed copy of the target"
    return True, ""


# -- partitions --------------------------------------------------------------


@dataclass(frozen=True)
class ConnectionPartition:
    items: tuple
    classes: tuple  # tuple of sorted tuples
    witnesses: dict  # ordered pair (f, g), f != g -> its ConnectionWitness
    raw_symmetric: bool
    reflexive_ok: bool


def _partition(items, witnesses_from):
    """Classes of items under the symmetric closure of the relation whose
    witnesses witnesses_from(f, items) returns as {g: witness}."""
    items = sorted(map(tuple, items))
    reached = {f: witnesses_from(f, items) for f in items}
    witnesses = {(f, g): w for f in items for g, w in reached[f].items() if g != f}
    parent = {f: f for f in items}

    def find(f):
        while parent[f] != f:
            parent[f] = parent[parent[f]]
            f = parent[f]
        return f

    for f, g in witnesses:
        rf, rg = find(f), find(g)
        parent[max(rf, rg)] = min(rf, rg)
    groups = {}
    for f in items:
        groups.setdefault(find(f), []).append(f)
    return ConnectionPartition(
        items=tuple(items),
        classes=tuple(tuple(g) for g in sorted(groups.values())),
        witnesses=witnesses,
        raw_symmetric=all((f, g) in witnesses for g, f in witnesses),
        reflexive_ok=all(f in reached[f] for f in items),
    )


def root_partition(rd, wd, restrict=None):
    items = sorted(map(tuple, restrict)) if restrict is not None else rd.gamma
    return _partition(items, lambda f, items: _root_witnesses(f, items, rd, wd, restrict))


def weight_partition(rd, wd):
    return _partition(wd.lam, lambda f, items: _weight_witnesses(f, items, rd, wd))
