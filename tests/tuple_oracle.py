"""Tuple-based group-ring maps, kept as a test oracle.

These are the product, involution and layer maps that `thetaforge.groupring`
used before its flat index maps: every term is converted to its digit tuple
with `tuple_of` and back with `index`.  They are quadratic (the product) or
tuple-bound (the rest) and serve only to cross-check the flat versions.
"""

from thetaforge.groupring import GroupRingElement, zero


def reference_convolve(x: GroupRingElement, y: GroupRingElement) -> GroupRingElement:
    """The product, one pair of terms at a time."""
    mod = x.p**x.k
    q = x.order
    out = [0] * x.group_size
    for i, ci in enumerate(x.coeffs):
        if ci == 0:
            continue
        ti = x.tuple_of(i)
        for j, cj in enumerate(y.coeffs):
            if cj == 0:
                continue
            tj = y.tuple_of(j)
            tup = tuple((ai + aj) % q for ai, aj in zip(ti, tj))
            out[x.index(tup)] = (out[x.index(tup)] + ci * cj) % mod
    return GroupRingElement(x.p, x.k, x.n, x.delta, tuple(out))


def reference_star(x: GroupRingElement) -> GroupRingElement:
    """Involution induced by group inversion."""
    q = x.order
    out = [0] * x.group_size
    for idx, c in enumerate(x.coeffs):
        tup = x.tuple_of(idx)
        out[x.index(tuple((-t) % q for t in tup))] = c
    return GroupRingElement(x.p, x.k, x.n, x.delta, tuple(out))


def reference_project(x: GroupRingElement) -> GroupRingElement:
    """Layer n -> n-1: sum coefficients over the fibers of digit truncation."""
    if x.n == 0:
        raise ValueError("layer 0 has no lower layer")
    target = zero(x.p, x.k, x.n - 1, x.delta)
    q = target.order
    out = [0] * target.group_size
    for idx, c in enumerate(x.coeffs):
        if c:
            tup = x.tuple_of(idx)
            out[target.index(tuple(t % q for t in tup))] += c
    return GroupRingElement(x.p, x.k, x.n - 1, x.delta, tuple(out))


def reference_xi(x: GroupRingElement) -> GroupRingElement:
    """Layer n -> n+1: coefficient at a point is the coefficient at its
    truncation (equivalently, any lift times the kernel norm sum)."""
    target = zero(x.p, x.k, x.n + 1, x.delta)
    q = x.order
    out = []
    for idx in range(target.group_size):
        tup = target.tuple_of(idx)
        out.append(x.coeffs[x.index(tuple(t % q for t in tup))])
    return GroupRingElement(x.p, x.k, x.n + 1, x.delta, tuple(out))
