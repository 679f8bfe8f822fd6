"""Connectivity of roots and of weights.

Two roots are connected either directly, when one is a sign times a twist
power of the other, or through a finite family of roots and weights whose
twist-adjusted partial sums stay inside the signed root set and finally
reach a signed twist power of the target.  Weight connectivity is the same
idea with plain sums, that is with the identity in place of the twist.

Witnesses come from one breadth-first walk per source over the signed root
set.  The walk does not depend on the target, so a single walk answers every
target at once: the partitions make one walk per item, and roots_connected
and weights_connected are the same walk with one target.  The walks run on
the signed roots and weights numbered in sorted order, with the twist image
of each numbered functional computed once, and each partition shares its
steps and twist orbits between its sources.  validate_*_chain replay a
printed chain witness clause by clause, recomputing every displayed partial
sum from its exponent pattern.
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
    walks = _Walks.of_roots(rd, wd, restrict, (gamma, xi))
    return walks.witnesses_from(gamma, [xi]).get(tuple(xi))


def weights_connected(alpha, beta, rd, wd):
    """Witness connecting two weights, or None.

    Direct clause: beta is alpha or its negative.  Chains start at alpha,
    may pass through signed weights and signed roots, and must land on a
    signed copy of beta.
    """
    walks = _Walks.of_weights(rd, wd, (alpha, beta))
    return walks.witnesses_from(alpha, [beta]).get(tuple(beta))


class _Walks:
    """Chain walks over the signed roots and weights of one decomposition,
    with the functionals numbered once in sorted order: number order is
    functional order, so chains of numbers compare as the chains they stand
    for, and the walks hash small integers instead of Fraction tuples.

    family and sigma_set are the chain vocabulary and the allowed partial
    sums.  The next partial sum after sum and member is the twist image of
    their sum; the twist acts linearly, so that is the sum of the two
    images, and image[i] is computed once per numbered functional.  Roots
    walk under composition with psi^-1; weights walk under the identity
    twist, so their images are the functionals themselves and their orbits
    single members.  Each step from a numbered sum over the whole family,
    and each orbit, is computed once per instance, so one instance serves
    every source of a partition.  Chains go back to functionals only in
    the witnesses.
    """

    def __init__(self, rd, wd, family, sigma_set, twisted, extra):
        self.rd = rd
        self.twisted = twisted
        self.funcs = sorted(_pm(rd.gamma) | _pm(wd.lam) | family | _pm(extra))
        self.number = {f: i for i, f in enumerate(self.funcs)}
        self.image = [compose_psi_power(f, -1, rd) for f in self.funcs] if twisted else self.funcs
        # the set is closed under negation, which reverses the order
        self.neg = range(len(self.funcs) - 1, -1, -1)
        self.family = sorted(self.number[f] for f in family)
        self.family_set = set(self.family)
        self.sigma_set = {self.number[f] for f in sigma_set}
        self._steps = {}
        self._orbits = {}

    @classmethod
    def of_roots(cls, rd, wd, restrict=None, extra=()):
        allowed = _pm(restrict if restrict is not None else rd.gamma)
        return cls(rd, wd, _pm(wd.lam) | allowed, allowed, twisted=True, extra=extra)

    @classmethod
    def of_weights(cls, rd, wd, extra=()):
        signed = _pm(wd.lam) | _pm(rd.gamma)
        return cls(rd, wd, signed, signed, twisted=False, extra=extra)

    def steps(self, sigma):
        """(zeta, next) for each family member zeta whose next partial sum
        after sigma is a numbered functional, in family order."""
        out = self._steps.get(sigma)
        if out is None:
            image, number = self.image, self.number
            out = []
            for zeta in self.family:
                nxt = number.get(vec_add(image[sigma], image[zeta]))
                if nxt is not None:
                    out.append((zeta, nxt))
            self._steps[sigma] = out
        return out

    def orbit(self, i):
        """Twist orbit of functional number i, as numbers."""
        out = self._orbits.get(i)
        if out is None:
            orbit = psi_orbit(self.funcs[i], self.rd) if self.twisted else [self.funcs[i]]
            out = self._orbits[i] = [self.number[f] for f in orbit]
        return out

    def witnesses_from(self, f, items):
        """{g: witness} for every g in items that f connects to: directly
        when g is a signed member of f's orbit, else by the least chain
        from a member of that orbit to a signed member of g's orbit."""
        number, funcs, neg = self.number, self.funcs, self.neg
        nums = [number[tuple(g)] for g in items]
        orbit_f = self.orbit(number[tuple(f)])
        direct = {}
        for i, member in enumerate(orbit_f):
            direct.setdefault(member, ConnectionWitness(kind="direct", epsilon=1, z=-i))
            direct.setdefault(neg[member], ConnectionWitness(kind="direct", epsilon=-1, z=-i))
        targets = {}
        for g in nums:
            if g not in direct:
                ends = {}
                for m, member in enumerate(self.orbit(g)):
                    ends.setdefault(member, (1, m))
                    ends.setdefault(neg[member], (-1, m))
                targets[g] = ends
        found = self._walk([o for o in orbit_f if o in self.family_set], targets) | direct
        return {funcs[j]: found[j] for j in nums if j in found}

    def _walk(self, starts, targets):
        """Breadth-first chain walk shared by both relations.

        A chain is a start followed by family members; each next partial
        sum must stay in sigma_set until it lands on an endpoint of some
        item: targets maps each item to {endpoint: (end_sign, end_power)}.
        The frontier never depends on the targets, so one walk serves them
        all.  Returns {item: witness} with, for each item reached, the
        lexicographically least chain of the least length.
        """
        hits = {}
        for item, ends in targets.items():
            for end, signed_power in ends.items():
                hits.setdefault(end, {})[item] = signed_power
        sigma_set = self.sigma_set
        found = {}
        paths = {s: (s,) for s in sorted(set(starts))}
        frontier = sorted(paths)
        depth = 1
        while len(found) < len(targets) and frontier and depth < len(self.family) + 2:
            best = {}
            next_paths = {}
            for sigma in frontier:
                for zeta, nxt in self.steps(sigma):
                    if nxt in hits:
                        chain = paths[sigma] + (zeta,)
                        for item, signed_power in hits[nxt].items():
                            if item not in found and (item not in best or chain < best[item][0]):
                                best[item] = (chain, signed_power)
                    if nxt in sigma_set and nxt not in paths and nxt not in next_paths:
                        next_paths[nxt] = paths[sigma] + (zeta,)
            for item, (chain, (end_sign, end_power)) in best.items():
                elements = tuple(self.funcs[k] for k in chain)
                found[item] = ConnectionWitness(kind="chain", elements=elements, end_sign=end_sign, end_power=end_power)
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


# with no items the partition makes no walk, so nothing is numbered


def root_partition(rd, wd, restrict=None):
    items = sorted(map(tuple, restrict)) if restrict is not None else rd.gamma
    return _partition(items, items and _Walks.of_roots(rd, wd, restrict).witnesses_from)


def weight_partition(rd, wd):
    return _partition(wd.lam, wd.lam and _Walks.of_weights(rd, wd).witnesses_from)
