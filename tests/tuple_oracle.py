"""Tuple-based group-ring maps, kept as a test oracle.

These are the product, involution and layer maps that `thetaforge.groupring`
used before its flat index maps: every term is converted to its digit tuple
with `digits_of` and back with `flat_index`.  They are quadratic (the
product) or tuple-bound (the rest) and serve only to cross-check the flat
versions.
"""

from thetaforge.groupring import GroupRingElement, digits_of, flat_index


def reference_convolve(x: GroupRingElement, y: GroupRingElement) -> GroupRingElement:
    """The product, one pair of terms at a time."""
    mod = x.p**x.k
    q, d = x.order, x.delta
    out = [0] * x.group_size
    for i, ci in enumerate(x.coeffs):
        if ci == 0:
            continue
        ti = digits_of(i, q, d)
        for j, cj in enumerate(y.coeffs):
            if cj == 0:
                continue
            tj = digits_of(j, q, d)
            at = flat_index(tuple((ai + aj) % q for ai, aj in zip(ti, tj)), q, d)
            out[at] = (out[at] + ci * cj) % mod
    return GroupRingElement(x.p, x.k, x.n, x.delta, tuple(out))


def reference_star(x: GroupRingElement) -> GroupRingElement:
    """Involution induced by group inversion."""
    q, d = x.order, x.delta
    out = [0] * x.group_size
    for idx, c in enumerate(x.coeffs):
        out[flat_index(tuple((-t) % q for t in digits_of(idx, q, d)), q, d)] = c
    return GroupRingElement(x.p, x.k, x.n, x.delta, tuple(out))


def reference_project(x: GroupRingElement) -> GroupRingElement:
    """Layer n -> n-1: sum coefficients over the fibers of digit truncation."""
    if x.n == 0:
        raise ValueError("layer 0 has no lower layer")
    q, d = x.order // x.p, x.delta
    out = [0] * q**d
    for idx, c in enumerate(x.coeffs):
        if c:
            out[flat_index(tuple(t % q for t in digits_of(idx, x.order, d)), q, d)] += c
    return GroupRingElement(x.p, x.k, x.n - 1, x.delta, tuple(out))


def reference_xi(x: GroupRingElement) -> GroupRingElement:
    """Layer n -> n+1: coefficient at a point is the coefficient at its
    truncation (equivalently, any lift times the kernel norm sum)."""
    q, d = x.order, x.delta
    out = []
    for idx in range((q * x.p) ** d):
        tup = digits_of(idx, q * x.p, d)
        out.append(x.coeffs[flat_index(tuple(t % q for t in tup), q, d)])
    return GroupRingElement(x.p, x.k, x.n + 1, x.delta, tuple(out))
