"""Named verification suites driven by the command line.

Every suite returns a list of report rows (report.check_row) with both sides
of each identity rendered in expanded basis form, so a failure is diagnosable
from the report alone.  All suites are deterministic given (quiver, q, seed).
"""

from __future__ import annotations

import random
from itertools import product

from .cx2 import Complex, contractible, direct_sum, squares_to_zero
from .hall import HallAlgebra, verify_ringel
from .linalg import line_index
from .reflection import SinkReflection
from .report import check_row
from .reps import ENUM_DIM_GUARD, RepCategory, check_dim, check_scan
from .scalars import CoeffScalar, q_power
from .sdh2 import SDH2Algebra
from .sdhz import SDHZAlgebra


# ----------------------------------------------------------------------
# hallring


def suite_ringel(cat: RepCategory) -> list:
    return verify_ringel(cat)


# ----------------------------------------------------------------------
# sdhz: presentation and Euler lemmas


def suite_presentation_uv(cat: RepCategory) -> list:
    alg = SDHZAlgebra(cat)
    q = cat.p
    n = cat.quiver.n
    euler = cat.euler_form_int
    qm1 = CoeffScalar.of(q, q - 1)
    simples = [cat.simple(i) for i in range(1, n + 1)]
    classes = [("+S%d" % i, s.dim) for i, s in enumerate(simples, start=1)]
    classes += [("-S%d" % i, tuple(-d for d in s.dim))
                for i, s in enumerate(simples, start=1)]
    u = {(i, d): alg.u_gen(S, d) for i, S in enumerate(simples, start=1) for d in range(4)}
    v = {(a, d): alg.v_gen(al, d) for a, al in classes for d in range(4)}

    def commute(name, x, y, e=0):
        """The row of the q-commutation x y = q^e y x."""
        return check_row(name, x * y, (y * x).scale_scalar(q_power(q, e)))

    out = []
    for m in (0, 1):
        p_ = m + 2
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                x, y, z = u[i, m], u[j, m + 1], u[j, p_]
                rhs = v[f"+S{i}", m].scale_scalar(qm1) if i == j else alg.zero()
                out.append(check_row(f"(U) u[{i},{m}]u[{j},{m+1}] comm, middle v_(S{i},{m})",
                                     x * y - y * x, rhs))
                out.append(check_row(f"(U) u[{i},{m}]u[{j},{p_}] commute",
                                     x * z - z * x, alg.zero()))
        for a, al in classes:
            for b, be in classes:
                out += [commute(f"(V) v[{a},{m}]v[{b},{m}]", v[a, m], v[b, m],
                                euler(be, al) - euler(al, be)),
                        commute(f"(V) v[{a},{m}]v[{b},{m+1}]", v[a, m], v[b, m + 1],
                                euler(be, al)),
                        commute(f"(V) v[{a},{m}]v[{b},{p_}]", v[a, m], v[b, p_])]
            for j, S in enumerate(simples, start=1):
                out += [commute(f"(UV) v[{a},{m}]u[{j},{m+1}]", v[a, m], u[j, m + 1],
                                euler(S.dim, al)),
                        commute(f"(UV) v[{a},{m}]u[{j},{p_}]", v[a, m], u[j, p_])]
        for i, S in enumerate(simples, start=1):
            for b, be in classes:
                out += [commute(f"(UV) u[{i},{m}]v[{b},{m}]", u[i, m], v[b, m],
                                euler(be, S.dim)),
                        commute(f"(UV) u[{i},{m}]v[{b},{m+1}]", u[i, m], v[b, m + 1]),
                        commute(f"(UV) u[{i},{m}]v[{b},{p_}]", u[i, m], v[b, p_])]
    return out


def suite_euler_lemmas(cat: RepCategory) -> list:
    """The multiplicative Euler forms of u- and v-symbols in degrees 0, 1, 2
    against their closed forms, each computed by linear algebra over the
    signed pieces of the symbols (SDHZAlgebra.euler_pairZ).  Rows whose
    piece triples are related by a common translation of degrees, such as
    <u[A, m], u[B, n]> at (0, 1) and (1, 2), share one computation of each
    such triple (SDHZAlgebra._exponent)."""
    alg = SDHZAlgebra(cat)
    q = cat.p
    n = cat.quiver.n
    mods = [("S%d" % i, cat.simple(i)) for i in range(1, n + 1)]
    if n > 1:
        mods.append(("P1", cat.projective(1)))
    classes = [(f"[{nm}]", M.dim) for nm, M in mods]
    classes += [(f"-[{nm}]", tuple(-d for d in M.dim)) for nm, M in mods]
    out = []
    degs = (0, 1, 2)
    for m in degs:
        for nn in degs:
            for aname, al in classes:
                for bname, B in mods:
                    got = alg.euler_pairZ(("v", al, m), ("u", B, nn))
                    want = q_power(q, cat.euler_form_int(al, B.dim) if m == nn else 0)
                    out.append(check_row(f"<v[{aname},{m}], u[{bname},{nn}]>", got, want))
                    got = alg.euler_pairZ(("u", B, nn), ("v", al, m))
                    want = q_power(q, cat.euler_form_int(B.dim, al)
                                   if m == nn - 1 else 0)
                    out.append(check_row(f"<u[{bname},{nn}], v[{aname},{m}]>", got, want))
                for bname, be in classes:
                    got = alg.euler_pairZ(("v", al, m), ("v", be, nn))
                    d = (1 if m == nn else 0) + (1 if m == nn + 1 else 0)
                    want = q_power(q, d * cat.euler_form_int(al, be))
                    out.append(check_row(f"<v[{aname},{m}], v[{bname},{nn}]>", got, want))
            for aname, A in mods:
                for bname, B in mods:
                    got = alg.euler_pairZ(("u", A, m), ("u", B, nn))
                    if nn > m:
                        e = cat.euler_form_int(A.dim, B.dim) * ((-1) ** (nn - m))
                    elif nn == m:
                        e = cat.euler_form_int(A.dim, B.dim)
                    else:
                        e = 0
                    out.append(check_row(f"<u[{aname},{m}], u[{bname},{nn}]>",
                                         got, q_power(q, e)))
    return out


def suite_assoc_z(cat: RepCategory, samples: int, seed: int) -> list:
    alg = SDHZAlgebra(cat)
    rng = random.Random(seed)
    n = cat.quiver.n
    gens = []
    for i in range(1, n + 1):
        for m in (0, 1):
            gens.append((f"u[S{i},{m}]", alg.u_gen(cat.simple(i), m)))
            gens.append((f"v[+S{i},{m}]", alg.v_gen(cat.simple(i).dim, m)))
            gens.append((f"v[-S{i},{m}]",
                         alg.v_gen(tuple(-d for d in cat.simple(i).dim), m)))
    if n > 1:
        gens.append(("u[P1,0]", alg.u_gen(cat.projective(1), 0)))
        gens.append(("u[P1,1]", alg.u_gen(cat.projective(1), 1)))
    out = []
    for k in range(samples):
        (nx, x), (ny, y), (nz, z) = (rng.choice(gens) for _ in range(3))
        lhs = alg.productZ(alg.productZ(x, y), z)
        rhs = alg.productZ(x, alg.productZ(y, z))
        out.append(check_row(f"assoc-z #{k}: ({nx}{ny}){nz} = {nx}({ny}{nz})", lhs, rhs))
    return out


def suite_assoc_z2(cat: RepCategory, samples: int, seed: int) -> list:
    alg = SDH2Algebra(cat)
    rng = random.Random(seed)
    pool_reps = [cat.zero_rep]
    pool_reps += [cat.simple(i) for i in range(1, cat.quiver.n + 1)]
    if cat.quiver.n > 1:
        pool_reps.append(cat.projective(1))
    keys = []
    for H0 in pool_reps:
        for H1 in pool_reps:
            if H0.total_dim() + H1.total_dim() <= 3:
                keys.append((cat.intern(H0), cat.intern(H1)))
    lat = (-1, 0, 1)

    def rand_term():
        key = rng.choice(keys)
        g = (tuple(rng.choice(lat) for _ in range(cat.quiver.n)),
             tuple(rng.choice(lat) for _ in range(cat.quiver.n)))
        return alg.term(g, key)

    out = []
    for k in range(samples):
        x, y, z = rand_term(), rand_term(), rand_term()
        lhs = alg.product2(alg.product2(x, y), z)
        rhs = alg.product2(x, alg.product2(y, z))
        out.append(check_row(f"assoc-z2 #{k} (plain)", lhs, rhs))
        lhs = alg.twisted_product2(alg.twisted_product2(x, y), z)
        rhs = alg.twisted_product2(x, alg.twisted_product2(y, z))
        out.append(check_row(f"assoc-z2 #{k} (twisted)", lhs, rhs))
    return out


# ----------------------------------------------------------------------
# Z/2 comparison with the plain Hall algebra of complexes


def proj_complex_pool(alg: SDH2Algebra, max_total: int) -> list:
    """Iso-class representatives of projective-component Z/2 complexes with
    total component dimension <= max_total: the first complex, in
    enumeration order, of each (g, key) of alg.normal_form.  The "complex
    pool enumeration" guard (check_scan) bounds, before any is built, the
    p^(hom(M0, M1) + hom(M1, M0)) pairs (d0, d1) of the largest pair."""
    cat = alg.cat
    projs = {cat.zero_rep.dim: cat.zero_rep}
    # direct sums of indecomposable projectives with total dim <= max_total
    def extend(current):
        for i in range(1, cat.quiver.n + 1):
            cand = cat.direct_sum([current, cat.projective(i)])
            if cand.total_dim() <= max_total and cand.dim not in projs:
                projs[cand.dim] = cand
                extend(cand)
    extend(cat.zero_rep)
    pairs = [(M0, M1) for M0 in projs.values() for M1 in projs.values()
             if M0.total_dim() + M1.total_dim() <= max_total]
    check_scan("complex pool enumeration", cat.p,
               max(cat.hom_dim(M0, M1) + cat.hom_dim(M1, M0) for M0, M1 in pairs))

    def morphisms(S, T):
        basis = cat.hom_basis(S, T)
        return [cat.morphisms_from_coeffs(S, T, basis, c)
                for c in product(range(cat.p), repeat=len(basis))]

    pool = {}
    for M0, M1 in pairs:
        for d0, d1 in product(morphisms(M0, M1), morphisms(M1, M0)):
            # d0 and d1 span hom spaces, so only d o d = 0 needs a check
            if squares_to_zero(d0, d1):
                X = Complex._trusted(cat, 0, (M0, M1), (d0, d1), 2)
                pool.setdefault(alg.normal_form(X)[1:], X)
    return list(pool.values())


def suite_bridgeland_compare(cat: RepCategory, max_total: int = 4) -> list:
    """product2 against the subobject-counting Hall product of C_{Z/2}(P),
    localized at the acyclic classes (i.e. pushed through normal forms)."""
    alg = SDH2Algebra(cat)
    tools = alg.tools
    pool = proj_complex_pool(alg, max_total - 1 if max_total > 1 else max_total)
    out = []
    for L in pool:
        for M in pool:
            if L.total_dim() + M.total_dim() > max_total:
                continue
            route_a = alg.product2(alg.element_of(L), alg.element_of(M))
            # independent route: the Hall number of sub-complexes of each
            # middle, through the automorphism conversion (|Aut| read off
            # normal forms), against the count of its extension classes; the
            # middles are grouped by normal form.
            middles = {}
            for _f, E, weight in tools.ext1_classes_proj(L, M):
                nf = alg.normal_form(E)[1:]
                X, n_ext = middles.get(nf, (E, 0))
                middles[nf] = (X, n_ext + weight)
            hom_lm = tools.hom_dim(L, M)
            route_b = alg.zero()
            counts_ok = True
            for X, n_ext in middles.values():
                const = alg.riedtmann(tools.hall_count(L, X, M), L, X, M)
                if const * cat.p ** hom_lm != n_ext:
                    counts_ok = False
                route_b += alg.element_of(X).scale_scalar(CoeffScalar.of(cat.p, const))
            name = (f"bridgeland L(dims {L.component(0).dim}|{L.component(1).dim}) "
                    f"M(dims {M.component(0).dim}|{M.component(1).dim})")
            status = "pass" if counts_ok and (route_a - route_b).is_zero() else "fail"
            out.append((name, status, str(route_a), str(route_b)))
    return out


# ----------------------------------------------------------------------
# quantum group / reflection / torus / quotient relations


def suite_quantum_group(cat: RepCategory, perturb: bool = False) -> list:
    return SDH2Algebra(cat).verify_quantum_group(perturb=perturb)


def suite_reflection(cat: RepCategory, sink: int) -> list:
    return SinkReflection(cat, sink).checks()


def suite_torus_commutation(cat: RepCategory) -> list:
    """Both commutation identities for inverses of acyclic classes, on all
    generator pairs of the Z/2 torus."""
    alg = SDH2Algebra(cat)
    n = cat.quiver.n
    zero = (0,) * n
    gens = []
    for j in range(n):
        e = tuple(1 if k == j else 0 for k in range(n))
        gens.append((f"K[P{j+1}]", (e, zero)))
        gens.append((f"K*[P{j+1}]", (zero, e)))
    out = []
    for n1, g1 in gens:
        for n2, g2 in gens:
            g12 = (tuple(a + b for a, b in zip(g1[0], g2[0])),
                   tuple(a + b for a, b in zip(g1[1], g2[1])))
            inv1 = alg.torus_inverse_term(g1)
            inv2 = alg.torus_inverse_term(g2)
            lhs = alg.product2(inv1, inv2)
            rhs = alg.torus_inverse_term(g12).scale_scalar(alg.torus_euler(g2, g1))
            out.append(check_row(f"inv-inv {n1},{n2}", lhs, rhs))
            lhs = alg.product2(inv1, alg.torus_term(g2))
            rhs = alg.product2(alg.torus_term(g2), inv1).scale_scalar(
                alg.torus_euler(g1, g2) * alg.torus_euler(g2, g1).inverse())
            out.append(check_row(f"inv-comm {n1},{n2}", lhs, rhs))
    return out


def _drawn_middle(classes, p: int, rng):
    """Middle term of a uniform draw among all p^k extension classes: the
    drawn number's k base-p digits name a class, and classes lists the one
    on its line (weights as in linalg.projective_points)."""
    total = sum(weight for _f, _E, weight in classes)
    k = 0
    while p ** k < total:
        k += 1
    r = rng.randrange(total)
    digits = [r // p ** (k - 1 - i) % p for i in range(k)]
    return classes[line_index(p, digits)][1]


def suite_quotient_relations(cat: RepCategory, samples: int, seed: int) -> list:
    """Conflations with acyclic kernel: the class of the middle equals the
    class of (kernel + cokernel), in both gradings."""
    rng = random.Random(seed)
    alg2 = SDH2Algebra(cat)
    algz = SDHZAlgebra(cat)
    tools2 = alg2.tools
    toolsz = algz.tools
    n = cat.quiver.n
    small = [cat.simple(i) for i in range(1, n + 1)]
    if n > 1:
        small.append(cat.projective(1))
    projs = [cat.projective(i) for i in range(1, n + 1)]
    out = []
    half = samples // 2
    for k in range(half):
        H0 = rng.choice(small + [cat.zero_rep])
        H1 = rng.choice(small + [cat.zero_rep])
        Mrep = alg2.rep_of_key((cat.intern(H0), cat.intern(H1)))
        P = rng.choice(projs)
        K = contractible(cat, P, 0 if rng.random() < 0.5 else 1, 2)
        L = _drawn_middle(tools2.ext1_classes_proj(Mrep, K), cat.p, rng)
        lhs = alg2.element_of(L)
        rhs = alg2.element_of(direct_sum([K, Mrep]))
        out.append(check_row(f"z2 conflation #{k} (H0={H0.dim}, H1={H1.dim}, K on {P.dim})",
                             lhs, rhs))
    for k in range(samples - half):
        A = rng.choice(small)
        m = rng.choice((0, 1))
        Mrep = algz.rep_of_key(((m, cat.intern(A)),))
        P = rng.choice(projs)
        slot = rng.choice((m - 1, m))
        K = contractible(cat, P, slot)
        L = _drawn_middle(toolsz.ext1_classes_proj(Mrep, K), cat.p, rng)
        lhs = algz.element_of(L)
        rhs = algz.element_of(direct_sum([K, Mrep]))
        out.append(check_row(f"z conflation #{k} (A={A.dim}@{m}, v on {P.dim}@{slot})",
                             lhs, rhs))
    return out


# ----------------------------------------------------------------------
# structure-constant table


def table_rows(cat: RepCategory, bound: int) -> list:
    """All structure constants for iso classes of total dimension <= bound.

    Rows are (A, B, C) with C a middle term of an extension of A by B, that is
    0 -> B -> C -> A -> 0.  The Bridgeland constant is
    |Ext^1(A,B)_C| / |Hom(A,B)|, and the Hall number g, the number of
    subobjects of C isomorphic to B with quotient isomorphic to A, follows
    from it by Riedtmann's formula.  Subobjects are counted only in the
    sampled cross-check of product_pair, whose guard ENUM_DIM_GUARD bounds
    the middle terms.  The "submodule enumeration guardrail" (check_dim)
    therefore bounds `bound`, the largest total dimension of a middle term,
    by ENUM_DIM_GUARD, and rejects a larger one before any enumeration.
    """
    check_dim("submodule enumeration guardrail", bound, ENUM_DIM_GUARD, "ENUM_DIM_GUARD")
    alg = HallAlgebra(cat, cross_check="sampled")
    keys = cat.iso_classes_up_to(bound)
    rows = []
    for A in keys:
        for B in keys:
            if sum(A.dim) + sum(B.dim) > bound:
                continue
            prod = alg.product_pair(A, B)
            for C in sorted(prod.terms):
                const = prod.terms[C]
                rows.append({
                    "A": A.label, "B": B.label, "C": C.label,
                    "hall_number": alg.riedtmann_hall_number(A, B, C, const),
                    "bridgeland_constant": str(const),
                })
    rows.sort(key=lambda r: (r["C"], r["A"], r["B"]))
    return rows


SUITES = {
    "ringel": lambda cat, samples, seed, sink, perturb: suite_ringel(cat),
    "presentation-uv": lambda cat, samples, seed, sink, perturb: suite_presentation_uv(cat),
    "euler-lemmas": lambda cat, samples, seed, sink, perturb: suite_euler_lemmas(cat),
    "assoc-z": lambda cat, samples, seed, sink, perturb: suite_assoc_z(cat, samples, seed),
    "assoc-z2": lambda cat, samples, seed, sink, perturb: suite_assoc_z2(cat, samples, seed),
    "bridgeland-compare": lambda cat, samples, seed, sink, perturb: suite_bridgeland_compare(cat),
    "quantum-group": lambda cat, samples, seed, sink, perturb: suite_quantum_group(cat, perturb),
    "reflection": lambda cat, samples, seed, sink, perturb: suite_reflection(cat, sink),
    "torus-commutation": lambda cat, samples, seed, sink, perturb: suite_torus_commutation(cat),
    "quotient-relations": lambda cat, samples, seed, sink, perturb: suite_quotient_relations(cat, samples, seed),
}
# The suites that draw samples, the only ones that read samples and seed.
SAMPLED_SUITES = ("assoc-z", "assoc-z2", "quotient-relations")
