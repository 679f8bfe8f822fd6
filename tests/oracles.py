"""Independent oracles the tests compare the library against.

The brute_force_* functions re-derive connectivity by enumerating families
and recomputing every displayed partial sum from its exponent pattern, with
no shared recurrence with the breadth-first walkers they check.
dense_bilinear evaluates a structure tensor on its full dense grid, the
slow path that the grouped sparse rows of HLRAlgebra replace.
"""

from fractions import Fraction

from hlra.connections import _displayed_root_sum, _pm
from hlra.linalg import vec_add, vec_neg
from hlra.roots import compose_psi_power


def brute_force_root_connected(gamma, xi, rd, wd, max_len, restrict=None):
    """Depth-first enumeration of families straight off the definition."""
    gamma, xi = tuple(gamma), tuple(xi)
    bound = len(rd.gamma) + 2
    span = []
    for k in range(-bound, bound + 1):
        span.append(tuple(compose_psi_power(gamma, k, rd)))
    neg_xi = vec_neg(xi)
    for cand in span:
        if cand == xi or cand == neg_xi:
            return True

    allowed_roots = set(map(tuple, restrict)) if restrict is not None else set(rd.gamma)
    family = sorted(_pm(wd.lam) | _pm(allowed_roots))
    family_set = set(family)
    sigma_allowed = _pm(allowed_roots)
    targets = set()
    for k in range(-bound, bound + 1):
        t = tuple(compose_psi_power(xi, k, rd))
        targets.add(t)
        targets.add(vec_neg(t))
    starts = []
    for cand in span:
        if cand in family_set and cand not in starts:
            starts.append(cand)

    def extend(seq):
        p = len(seq)
        if p >= 2:
            s = _displayed_root_sum(seq, p, rd)
            if s in targets:
                return True
            if s not in sigma_allowed:
                return False
        if p >= max_len:
            return False
        for zeta in family:
            if extend(seq + [zeta]):
                return True
        return False

    return any(extend([s0]) for s0 in starts)


def brute_force_weight_connected(alpha, beta, rd, wd, max_len):
    alpha, beta = tuple(alpha), tuple(beta)
    if beta in (alpha, vec_neg(alpha)):
        return True
    vocab = sorted(_pm(wd.lam) | _pm(rd.gamma))
    vocab_set = set(vocab)
    targets = {beta, vec_neg(beta)}

    def extend(seq):
        p = len(seq)
        if p >= 2:
            total = seq[0]
            for i in range(1, p):
                total = vec_add(total, seq[i])
            if total in targets:
                return True
            if total not in vocab_set:
                return False
        if p >= max_len:
            return False
        for zeta in vocab:
            if extend(seq + [zeta]):
                return True
        return False

    return extend([alpha])


def same_class(part, f, g):
    """True when g lies in the first class of the partition that holds f."""
    f = tuple(f)
    cls = next((c for c in part.classes if f in c), None)
    return cls is not None and tuple(g) in cls


def dense_bilinear(tensor, u, v, out_dim):
    """sum over every cell (i, j, k) of u_i v_j tensor[i, j, k] e_k, on the
    dense grid built from the tensor's entries, zero cells included."""
    grid = [[[tensor.get((i, j, k), 0) for k in range(out_dim)] for j in range(len(v))] for i in range(len(u))]
    out = [Fraction(0)] * out_dim
    for i, ci in enumerate(u):
        for j, cj in enumerate(v):
            for k in range(out_dim):
                out[k] += ci * cj * grid[i][j][k]
    return tuple(out)
