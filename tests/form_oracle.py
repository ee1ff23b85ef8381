"""The two edge forms read off a vertex form, kept as a test oracle for the
stabilization identities U phi_s = p phi_t and U phi_t = a phi_t - phi_s."""

from thetaforge.hecke import EdgeForm, VertexForm


def source_form(f0: VertexForm) -> EdgeForm:
    """Edge form e -> f0(source(e))."""
    ids, vals = f0.domain.ids, f0.values
    out = tuple(vals[ids[e.source]] for e in f0.domain.directed_edges())
    return EdgeForm(f0.p, f0.k, f0.domain, out)


def target_form(f0: VertexForm) -> EdgeForm:
    """Edge form e -> f0(target(e))."""
    ids, vals = f0.domain.ids, f0.values
    out = tuple(vals[ids[e.target]] for e in f0.domain.directed_edges())
    return EdgeForm(f0.p, f0.k, f0.domain, out)
