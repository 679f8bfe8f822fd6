"""Connectivity of roots and of weights.

Two roots are connected either directly, when one is a sign times a twist
power of the other, or through a finite family of roots and weights whose
twist-adjusted partial sums stay inside the signed root set and finally
reach a signed twist power of the target.  Weight connectivity is the same
idea with plain sums and no twist adjustment.

The public functions compute witnesses with a breadth-first walk over the
signed root set.  validate_*_chain replay a printed chain witness clause by
clause, recomputing every displayed partial sum from its exponent pattern.
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
    gamma, xi = tuple(gamma), tuple(xi)
    orbit_g = psi_orbit(gamma, rd)
    neg_xi = vec_neg(xi)
    for i, member in enumerate(orbit_g):
        if member == xi:
            return ConnectionWitness(kind="direct", epsilon=1, z=-i)
        if member == neg_xi:
            return ConnectionWitness(kind="direct", epsilon=-1, z=-i)

    allowed_roots = set(map(tuple, restrict)) if restrict is not None else set(rd.gamma)
    family = sorted(_pm(wd.lam) | _pm(allowed_roots))
    targets = {}
    for m, member in enumerate(psi_orbit(xi, rd)):
        targets.setdefault(tuple(member), (1, m))
        targets.setdefault(vec_neg(member), (-1, m))
    return _shortest_chain(
        starts=[o for o in orbit_g if tuple(o) in set(family)],
        family=family,
        sigma_set=_pm(allowed_roots),
        targets=targets,
        step=lambda sigma, zeta: compose_psi_power(vec_add(sigma, zeta), -1, rd),
    )


def weights_connected(alpha, beta, rd, wd):
    """Witness connecting two weights, or None.

    Direct clause: beta is alpha or its negative.  Chains start at alpha,
    may pass through signed weights and signed roots, and must land on a
    signed copy of beta.
    """
    alpha, beta = tuple(alpha), tuple(beta)
    if beta == alpha:
        return ConnectionWitness(kind="direct", epsilon=1)
    if beta == vec_neg(alpha):
        return ConnectionWitness(kind="direct", epsilon=-1)
    sigma_set = _pm(wd.lam) | _pm(rd.gamma)
    return _shortest_chain(
        starts=[alpha],
        family=sorted(sigma_set),
        sigma_set=sigma_set,
        targets={beta: (1, 0), vec_neg(beta): (-1, 0)},
        step=vec_add,
    )


def _shortest_chain(starts, family, sigma_set, targets, step):
    """Breadth-first chain search shared by both walkers.

    A chain is a start followed by family members; each step(sum, member)
    must stay in sigma_set until it lands in targets, which maps an endpoint
    to its (end_sign, end_power).  Returns the lexicographically least chain
    of the least length as a witness, or None.
    """
    parent = {}
    frontier = sorted(set(map(tuple, starts)))
    for s in frontier:
        parent[s] = None
    max_depth = len(family) + 2

    def rebuild(node, last_zeta):
        chain = [last_zeta]
        while parent[node] is not None:
            prev, zeta = parent[node]
            chain.append(zeta)
            node = prev
        chain.append(node)
        chain.reverse()
        return tuple(chain)

    depth = 1
    while frontier and depth < max_depth:
        completions = []
        next_parent = {}
        for sigma in frontier:
            for zeta in family:
                nxt = step(sigma, zeta)
                if nxt in targets:
                    end_sign, end_power = targets[nxt]
                    completions.append(
                        ConnectionWitness(
                            kind="chain",
                            elements=rebuild(sigma, zeta),
                            end_sign=end_sign,
                            end_power=end_power,
                        )
                    )
                if nxt in sigma_set and nxt not in parent and nxt not in next_parent:
                    next_parent[nxt] = (sigma, zeta)
        if completions:
            return min(completions, key=lambda w: w.elements)
        parent.update(next_parent)
        frontier = sorted(next_parent)
        depth += 1
    return None


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
    witnesses: dict  # ordered pair -> ConnectionWitness, direct checks only
    raw_symmetric: bool
    reflexive_ok: bool


def _partition(items, connected):
    items = sorted(map(tuple, items))
    index = {f: i for i, f in enumerate(items)}
    parent = list(range(len(items)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i, j):
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[max(ri, rj)] = min(ri, rj)

    witnesses = {}
    raw = {}
    reflexive_ok = True
    for f in items:
        w = connected(f, f)
        raw[(f, f)] = w is not None
        if w is None:
            reflexive_ok = False
    for i, f in enumerate(items):
        for g in items[i + 1 :]:
            wf = connected(f, g)
            wg = connected(g, f)
            raw[(f, g)] = wf is not None
            raw[(g, f)] = wg is not None
            if wf is not None:
                witnesses[(f, g)] = wf
            if wg is not None:
                witnesses[(g, f)] = wg
            if wf is not None or wg is not None:
                union(index[f], index[g])
    raw_symmetric = all(raw[(f, g)] == raw[(g, f)] for (f, g) in raw)
    groups = {}
    for i, f in enumerate(items):
        groups.setdefault(find(i), []).append(f)
    classes = tuple(tuple(sorted(g)) for g in sorted(groups.values(), key=lambda g: sorted(g)[0]))
    return ConnectionPartition(
        items=tuple(items),
        classes=classes,
        witnesses=witnesses,
        raw_symmetric=raw_symmetric,
        reflexive_ok=reflexive_ok,
    )


def root_partition(rd, wd, restrict=None):
    items = sorted(map(tuple, restrict)) if restrict is not None else rd.gamma
    return _partition(items, lambda f, g: roots_connected(f, g, rd, wd, restrict=restrict))


def weight_partition(rd, wd):
    return _partition(wd.lam, lambda f, g: weights_connected(f, g, rd, wd))
