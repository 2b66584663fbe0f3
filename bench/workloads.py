"""The benchmark's fixed inputs and the verdict expected of every task.

Each workload is a list of ``.ham`` files run one after the other; one
pass runs every file once through ``hamcheck.cli.main``.  Next to every
task stands the verdict it must get and where that answer comes from.
The task text is compared with the file, so the two cannot drift apart.
"""

from __future__ import annotations

from dataclasses import dataclass, field

OK = "ok"
RESIDUAL = "residual"

PAPER = "paper"
SIGN = "published transport sign finding"
THEORY = "theory"

# Leads of the orthonomic systems reduced below, as (dependent, minimal
# derivative counts): a jet is reducible iff it divides none of them.
KDV_LEADS = (("u", {"t": 1}),)
CH_LEADS = (("u", {"t": 1, "x": 2}),)
CH2_LEADS = (("m", {"t": 1}), ("u", {"x": 2}))
PROBE_LEADS = (("u", {"x": 1}),)


@dataclass(frozen=True)
class NormalForm:
    """What a reduce task's normal form must satisfy.

    ``leads``: no jet of the normal form is a prolongation of these.
    ``kdv_t_order``: the task reduces D_t^k u on KdV; every monomial has
    weight 2 + 3k and the value on the exact solution is D_t^k u.
    ``text``: the exact rendered normal form, when it is known a priori.
    """

    leads: tuple
    kdv_t_order: int = None
    text: str = None


@dataclass(frozen=True)
class Expect:
    task: str
    status: str
    source: str
    detail: dict = field(default_factory=dict)
    normal_form: NormalForm = None


@dataclass(frozen=True)
class Input:
    path: str
    tasks: tuple
    # The exception this file raises today, through a fault that is known
    # and named; its tasks count as failed but the run stays correct.
    known_fault: str = None
    # Re-check the flow and the Magri chain of this file with sympy.
    hierarchy: bool = False


def _deep(k):
    return Expect(
        f"reduce(kdv, u_{'t' * k})", OK,
        f"{THEORY}: u_t^{k} has a normal form on an orthonomic system",
        normal_form=NormalForm(KDV_LEADS, kdv_t_order=k),
    )


def _suite(order):
    """KdV flow of the given order with the KdV pair, chain down to 1/2."""
    name = f"kdv{order}"
    chain = ", ".join(f"g{k}" for k in range(order, 2, -2)) + ", g1, g0"
    grads = [f"g{k}" for k in range(order, 2, -2)]
    entries = len(grads) + 2
    lifted = entries - 1
    return (
        Expect(f"bivector({name}, A1)", OK, f"{THEORY}: Dx is skew with constant coefficients"),
        Expect(f"bivector({name}, A2)", OK, f"{THEORY}: second KdV structure, a bivector for every KdV flow"),
        Expect(f"schouten({name}, A1, A2)", OK, f"{THEORY}: the KdV pair is compatible", {"zero": True}),
        Expect(f"hamiltonian({name}, A2)", OK, f"{THEORY}: A2 is Hamiltonian", {"zero": True}),
        Expect(f"genfn({name}, {grads[0]})", OK, f"{THEORY}: gradients of the hierarchy's Hamiltonians are conserved"),
        Expect(f"poisson({name}, A1, {grads[0]}, {grads[1]})", OK,
               f"{THEORY}: the KdV conserved quantities commute", {"bracket": "[0]"}),
        Expect(f"magri({name}, A1, A2, {chain})", OK,
               f"{THEORY}: Lenard recursion A1 g_i = A2 g_(i+1)", {"magri": True}),
        Expect(f"deform({name}, A1, A2) as {name}d", OK,
               f"{PAPER}: adjoint-constraint deformation of a bi-Hamiltonian system"),
        Expect(f"bivector({name}d, {name}d_A1)", OK, f"{PAPER}: block operators of the deformation certify"),
        Expect(f"bivector({name}d, {name}d_A2)", OK, f"{PAPER}: block operators of the deformation certify"),
        Expect(f"schouten({name}d, {name}d_A1, {name}d_A2)", OK,
               f"{PAPER}: the deformed block operators stay compatible", {"zero": True}),
        Expect(f"lift({name}d, {chain})", OK, f"{PAPER}: lifting theorem for the deformed hierarchy",
               {"genfn_certified": [True] * lifted, "magri_certified": [True] * (lifted - 1),
                "conserved": [True] * lifted}),
    )


WORKLOADS = {
    "deep-reduce": (
        Input("bench/inputs/deep_reduce.ham", (_deep(8), _deep(10), _deep(12))),
        Input(
            "bench/inputs/recursion_probe.ham",
            (Expect(f"reduce(e, u_{'x' * 1200})", OK,
                    f"{THEORY}: D_x^n u = u on u_x = u",
                    normal_form=NormalForm(PROBE_LEADS, text="[u]")),),
            known_fault="RecursionError",
        ),
    ),
    "hierarchy": (
        Input("demos/kdv.ham", (
            Expect("reduce(kdv, u_tx)", OK, f"{THEORY}: D_x of the flow",
                   {"normal_form": "[6*u_x^2 + 6*u*u_xx + u_xxxx]"}),
            Expect("symmetry(kdv, u_x)", OK, f"{THEORY}: x-translation is a symmetry"),
            Expect("symmetry(kdv, [u_xxx + 6*u*u_x])", OK, f"{THEORY}: every flow is a symmetry of itself"),
            Expect("genfn(kdv, psi2)", OK, f"{THEORY}: u is the gradient of the conserved momentum"),
            Expect("bivector(kdv, A1)", OK, f"{PAPER}: KdV worked example"),
            Expect("bivector(kdv, A2)", OK, f"{PAPER}: KdV worked example"),
            Expect("schouten(kdv, A1, A2)", OK, f"{PAPER}: KdV worked example", {"zero": True}),
            Expect("hamiltonian(kdv, A2)", OK, f"{PAPER}: KdV worked example", {"zero": True}),
            Expect("poisson(kdv, A1, psi1, psi2)", OK,
                   f"{THEORY}: the KdV conserved quantities commute", {"bracket": "[0]"}),
            Expect("magri(kdv, A1, A2, psi1, psi2, psi3)", OK,
                   f"{THEORY}: Lenard recursion A1 g_i = A2 g_(i+1)", {"magri": True}),
        ), hierarchy=True),
        Input("demos/kdv6.ham", (
            Expect("deform(kdv, A1, A2) as kdv6", OK, f"{PAPER}: the KdV6 deformation"),
            Expect("bivector(kdv6, kdv6_A1)", OK, f"{PAPER}: KdV6 block operators"),
            Expect("bivector(kdv6, kdv6_A2)", OK, f"{PAPER}: KdV6 block operators"),
            Expect("schouten(kdv6, kdv6_A1, kdv6_A2)", OK, f"{PAPER}: KdV6 block operators", {"zero": True}),
            Expect("lift(kdv6, psi1, psi2, psi3)", OK, f"{PAPER}: KdV6 lifted hierarchy",
                   {"genfn_certified": [True, True], "magri_certified": [True],
                    "conserved": [True, True]}),
        ), hierarchy=True),
        Input("bench/inputs/kdv5_suite.ham", _suite(5), hierarchy=True),
        Input("bench/inputs/kdv7_suite.ham", _suite(7), hierarchy=True),
    ),
    "constrained": (
        Input("demos/camassa_holm.ham", (
            Expect("bivector(ch, A1)", OK, f"{PAPER}: Camassa-Holm in non-evolution form"),
            Expect("bivector(ch, A2)", OK, f"{PAPER}: Camassa-Holm in non-evolution form"),
            Expect("schouten(ch, A1, A2)", OK, f"{PAPER}: Camassa-Holm pair is compatible", {"zero": True}),
            Expect("bivector(ch2, A1p)", OK, f"{PAPER}: two-component Camassa-Holm"),
            Expect("bivector(ch2, A2p)", OK, f"{PAPER}: two-component Camassa-Holm"),
            Expect("schouten(ch2, A1p, A2p)", OK, f"{PAPER}: two-component Camassa-Holm", {"zero": True}),
        )),
        Input("demos/kdv_three_component.ham", (
            Expect("bivector(kdv3, B1)", OK, f"{PAPER}: published 3x3 matrix"),
            Expect("bivector(kdv3, B2)", OK, f"{PAPER}: published 3x3 matrix"),
            Expect("schouten(kdv3, B1, B2)", OK, f"{PAPER}: published 3x3 pair is compatible", {"zero": True}),
            Expect("equivalence(kdv_embeddings)", OK, f"{PAPER}: connection relations of the two embeddings"),
            Expect("transport(kdv_embeddings, A1, 1->2, B1)", RESIDUAL,
                   f"{SIGN}: the transported A1 matches B1 only up to sign", {"recertified": True}),
            Expect("transport(kdv_embeddings, A1, 1->2, -B1)", OK,
                   f"{SIGN}: the transported A1 is -B1 up to bivector equivalence", {"recertified": True}),
            Expect("transport(kdv_embeddings, B1, 2->1)", OK,
                   f"{PAPER}: B1 transports back to a certified operator", {"recertified": True}),
        )),
        Input("bench/inputs/kdv3_transport.ham", (
            Expect("hamiltonian(kdv3, B1)", OK, f"{PAPER}: published 3x3 matrix is Hamiltonian", {"zero": True}),
            Expect("hamiltonian(kdv3, B2)", OK, f"{PAPER}: published 3x3 matrix is Hamiltonian", {"zero": True}),
            Expect("transport(kdv_embeddings, A2, 1->2, B2)", OK,
                   f"{THEORY}: transport of A2 recertifies and equals B2 up to equivalence",
                   {"recertified": True}),
            Expect("transport(kdv_embeddings, B2, 2->1)", OK,
                   f"{THEORY}: transport of a Hamiltonian operator recertifies", {"recertified": True}),
        )),
        Input("bench/inputs/constrained_reduce.ham", (
            Expect(f"reduce(ch2, m_{'t' * 8})", OK, f"{THEORY}: normal form on an orthonomic system",
                   normal_form=NormalForm(CH2_LEADS)),
            Expect(f"reduce(ch, u_{'t' * 8}xx)", OK, f"{THEORY}: normal form on an orthonomic system",
                   normal_form=NormalForm(CH_LEADS)),
        )),
    ),
}
