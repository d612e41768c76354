"""Named verification suites driven by the command line.

Every suite returns a list of (name, status, lhs, rhs) rows with both sides
of each identity rendered in expanded basis form, so a failure is diagnosable
from the report alone.  All suites are deterministic given (quiver, q, seed).
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product

from .cx2 import Cx2, direct_sum, make_KP, make_KPstar, zero_morphism
from .hall import HallAlgebra, verify_ringel
from .linalg import line_index
from .reflection import SinkReflection
from .reps import RepCategory
from .scalars import CoeffScalar, q_power
from .sdh2 import SDH2Algebra
from .sdhz import SDHZAlgebra, v_complex


def _row(name, lhs, rhs):
    ok = (lhs - rhs).is_zero() if hasattr(lhs, "is_zero") else lhs == rhs
    return (name, "pass" if ok else "fail", str(lhs), str(rhs))


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
    qm1 = CoeffScalar.of(q, q - 1)
    simples = [cat.simple(i) for i in range(1, n + 1)]
    classes = [("+S%d" % i, s.dim) for i, s in enumerate(simples, start=1)]
    classes += [("-S%d" % i, tuple(-d for d in s.dim))
                for i, s in enumerate(simples, start=1)]
    out = []
    ms = (0, 1)
    for m in ms:
        p_ = m + 2
        for i in range(1, n + 1):
            ui_m = alg.u_gen(simples[i - 1], m)
            for j in range(1, n + 1):
                uj_m1 = alg.u_gen(simples[j - 1], m + 1)
                uj_p = alg.u_gen(simples[j - 1], p_)
                lhs = alg.productZ(ui_m, uj_m1) - alg.productZ(uj_m1, ui_m)
                rhs = alg.v_gen(simples[i - 1].dim, m).scale_scalar(qm1) \
                    if i == j else alg.zero()
                out.append(_row(f"(U) u[{i},{m}]u[{j},{m+1}] comm, middle v_(S{i},{m})",
                                lhs, rhs))
                lhs2 = alg.productZ(ui_m, uj_p) - alg.productZ(uj_p, ui_m)
                out.append(_row(f"(U) u[{i},{m}]u[{j},{p_}] commute", lhs2, alg.zero()))
        for aname, al in classes:
            va_m = alg.v_gen(al, m)
            for bname, be in classes:
                vb_m = alg.v_gen(be, m)
                vb_m1 = alg.v_gen(be, m + 1)
                vb_p = alg.v_gen(be, p_)
                e_ab = cat.euler_form_int(al, be)
                e_ba = cat.euler_form_int(be, al)
                lhs = alg.productZ(va_m, vb_m)
                rhs = alg.productZ(vb_m, va_m).scale_scalar(q_power(q, e_ba - e_ab))
                out.append(_row(f"(V) v[{aname},{m}]v[{bname},{m}]", lhs, rhs))
                lhs = alg.productZ(va_m, vb_m1)
                rhs = alg.productZ(vb_m1, va_m).scale_scalar(q_power(q, e_ba))
                out.append(_row(f"(V) v[{aname},{m}]v[{bname},{m+1}]", lhs, rhs))
                lhs = alg.productZ(va_m, vb_p)
                rhs = alg.productZ(vb_p, va_m)
                out.append(_row(f"(V) v[{aname},{m}]v[{bname},{p_}]", lhs, rhs))
            for j in range(1, n + 1):
                uj_m1 = alg.u_gen(simples[j - 1], m + 1)
                uj_p = alg.u_gen(simples[j - 1], p_)
                e_sa = cat.euler_form_int(simples[j - 1].dim, al)
                lhs = alg.productZ(va_m, uj_m1)
                rhs = alg.productZ(uj_m1, va_m).scale_scalar(q_power(q, e_sa))
                out.append(_row(f"(UV) v[{aname},{m}]u[{j},{m+1}]", lhs, rhs))
                lhs = alg.productZ(va_m, uj_p)
                rhs = alg.productZ(uj_p, va_m)
                out.append(_row(f"(UV) v[{aname},{m}]u[{j},{p_}]", lhs, rhs))
        for i in range(1, n + 1):
            ui_m = alg.u_gen(simples[i - 1], m)
            for bname, be in classes:
                vb_m = alg.v_gen(be, m)
                vb_m1 = alg.v_gen(be, m + 1)
                vb_p = alg.v_gen(be, p_)
                e_bs = cat.euler_form_int(be, simples[i - 1].dim)
                lhs = alg.productZ(ui_m, vb_m)
                rhs = alg.productZ(vb_m, ui_m).scale_scalar(q_power(q, e_bs))
                out.append(_row(f"(UV) u[{i},{m}]v[{bname},{m}]", lhs, rhs))
                lhs = alg.productZ(ui_m, vb_m1)
                rhs = alg.productZ(vb_m1, ui_m)
                out.append(_row(f"(UV) u[{i},{m}]v[{bname},{m+1}]", lhs, rhs))
                lhs = alg.productZ(ui_m, vb_p)
                rhs = alg.productZ(vb_p, ui_m)
                out.append(_row(f"(UV) u[{i},{m}]v[{bname},{p_}]", lhs, rhs))
    return out


def suite_euler_lemmas(cat: RepCategory) -> list:
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
                    out.append(_row(f"<v[{aname},{m}], u[{bname},{nn}]>", got, want))
                    got = alg.euler_pairZ(("u", B, nn), ("v", al, m))
                    want = q_power(q, cat.euler_form_int(B.dim, al)
                                   if m == nn - 1 else 0)
                    out.append(_row(f"<u[{bname},{nn}], v[{aname},{m}]>", got, want))
                for bname, be in classes:
                    got = alg.euler_pairZ(("v", al, m), ("v", be, nn))
                    d = (1 if m == nn else 0) + (1 if m == nn + 1 else 0)
                    want = q_power(q, d * cat.euler_form_int(al, be))
                    out.append(_row(f"<v[{aname},{m}], v[{bname},{nn}]>", got, want))
            for aname, A in mods:
                for bname, B in mods:
                    got = alg.euler_pairZ(("u", A, m), ("u", B, nn))
                    if nn > m:
                        e = cat.euler_form_int(A.dim, B.dim) * ((-1) ** (nn - m))
                    elif nn == m:
                        e = cat.euler_form_int(A.dim, B.dim)
                    else:
                        e = 0
                    out.append(_row(f"<u[{aname},{m}], u[{bname},{nn}]>",
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
        out.append(_row(f"assoc-z #{k}: ({nx}{ny}){nz} = {nx}({ny}{nz})", lhs, rhs))
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
        out.append(_row(f"assoc-z2 #{k} (plain)", lhs, rhs))
        lhs = alg.twisted_product2(alg.twisted_product2(x, y), z)
        rhs = alg.twisted_product2(x, alg.twisted_product2(y, z))
        out.append(_row(f"assoc-z2 #{k} (twisted)", lhs, rhs))
    return out


# ----------------------------------------------------------------------
# Z/2 comparison with the plain Hall algebra of complexes


def proj_complex_pool(alg: SDH2Algebra, max_total: int) -> list:
    """Iso-class representatives of projective-component Z/2 complexes with
    total component dimension <= max_total."""
    cat = alg.cat
    tools = alg.tools
    projs = [cat.zero_rep]
    seen_dims = {projs[0].dim}
    # direct sums of indecomposable projectives with total dim <= max_total
    def extend(current):
        for i in range(1, cat.quiver.n + 1):
            P = cat.projective(i)
            cand = cat.direct_sum([current, P])
            if cand.total_dim() <= max_total and cand.dim not in seen_dims:
                seen_dims.add(cand.dim)
                projs.append(cand)
                extend(cand)
    for i in range(1, cat.quiver.n + 1):
        P = cat.projective(i)
        if P.total_dim() <= max_total:
            if P.dim not in seen_dims:
                seen_dims.add(P.dim)
                projs.append(P)
                extend(P)
    pool = []
    for M0 in projs:
        for M1 in projs:
            if M0.total_dim() + M1.total_dim() > max_total:
                continue
            b01 = cat.hom_basis(M0, M1)
            b10 = cat.hom_basis(M1, M0)
            for c01 in product(range(cat.p), repeat=len(b01)):
                f01 = cat.morphisms_from_coeffs(b01, c01) if any(c01) else None
                for c10 in product(range(cat.p), repeat=len(b10)):
                    f10 = cat.morphisms_from_coeffs(b10, c10) if any(c10) else None
                    d0 = f01 if f01 is not None else zero_morphism(cat, M0, M1)
                    d1 = f10 if f10 is not None else zero_morphism(cat, M1, M0)
                    ok = True
                    for i in range(cat.quiver.n):
                        if not (d1.mats[i] @ d0.mats[i]).is_zero() \
                                or not (d0.mats[i] @ d1.mats[i]).is_zero():
                            ok = False
                            break
                    if not ok:
                        continue
                    X = Cx2(cat, M0, M1, d0, d1)
                    if not any(tools.is_isomorphic(X, Y) for Y in pool):
                        pool.append(X)
    return pool


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
            # independent route: count extension classes per middle By
            # subcomplex enumeration and the automorphism conversion.
            middles = []
            for _f, E, weight in tools.ext1_classes_proj(L, M):
                for item in middles:
                    if tools.is_isomorphic(item[0], E):
                        item[1] += weight
                        break
                else:
                    middles.append([E, weight])
            aut_l = tools.aut_count(L)
            aut_m = tools.aut_count(M)
            hom_lm = tools.hom_dim(L, M)
            route_b = alg.zero()
            counts_ok = True
            for X, n_ext in middles:
                g = 0
                for U0, U1 in tools.sub_complexes_with_dims(X, M.M0.dim, M.M1.dim):
                    S = tools.sub_complex(X, U0, U1)
                    if not tools.is_isomorphic(S, M):
                        continue
                    Qc = tools.quotient_complex(X, U0, U1)
                    if tools.is_isomorphic(Qc, L):
                        g += 1
                aut_x = tools.aut_count(X)
                expected_ext = Fraction(g * aut_l * aut_m * (cat.p ** hom_lm), aut_x)
                if expected_ext != n_ext:
                    counts_ok = False
                const = CoeffScalar.of(cat.p, Fraction(g * aut_l * aut_m, aut_x))
                route_b += alg.element_of(X).scale_scalar(const)
            name = (f"bridgeland L(dims {L.M0.dim}|{L.M1.dim}) "
                    f"M(dims {M.M0.dim}|{M.M1.dim})")
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
            out.append(_row(f"inv-inv {n1},{n2}", lhs, rhs))
            lhs = alg.product2(inv1, alg.torus_term(g2))
            rhs = alg.product2(alg.torus_term(g2), inv1).scale_scalar(
                alg.torus_euler(g1, g2) * alg.torus_euler(g2, g1).inverse())
            out.append(_row(f"inv-comm {n1},{n2}", lhs, rhs))
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
        K = make_KP(cat, P) if rng.random() < 0.5 else make_KPstar(cat, P)
        L = _drawn_middle(tools2.ext1_classes_proj(Mrep, K), cat.p, rng)
        lhs = alg2.element_of(L)
        rhs = alg2.element_of(direct_sum([K, Mrep]))
        out.append(_row(f"z2 conflation #{k} (H0={H0.dim}, H1={H1.dim}, K on {P.dim})",
                        lhs, rhs))
    for k in range(samples - half):
        A = rng.choice(small)
        m = rng.choice((0, 1))
        Mrep = algz.rep_of_key(((m, cat.intern(A)),))
        P = rng.choice(projs)
        slot = rng.choice((m - 1, m))
        K = v_complex(cat, P, slot)
        L = _drawn_middle(toolsz.ext1_classes_proj(Mrep, K), cat.p, rng)
        lhs = algz.element_of(L)
        rhs = algz.element_of(direct_sum([K, Mrep]))
        out.append(_row(f"z conflation #{k} (A={A.dim}@{m}, v on {P.dim}@{slot})",
                        lhs, rhs))
    return out


def embed_im_checks(cat: RepCategory, m: int, bound: int = 4) -> list:
    """The stalk embedding at degree m is a ring homomorphism on pairs with
    total dimension <= bound, and is injective on basis keys."""
    hall = HallAlgebra(cat, cross_check="sampled")
    alg = SDHZAlgebra(cat)
    out = []
    keys = cat.iso_classes_up_to(bound)
    for A in keys:
        for B in keys:
            if sum(A.dim) + sum(B.dim) > bound:
                continue
            lhs = alg.productZ(alg.u_gen(A.rep, m), alg.u_gen(B.rep, m))
            img = alg.zero()
            for C, c in hall.product_pair(A, B).terms.items():
                img += alg.u_gen(C.rep, m).scale_scalar(c)
            out.append(_row(f"I_{m}([{A.label}] o [{B.label}]) multiplicative",
                            lhs, img))
    seen = set()
    inj = True
    for A in keys:
        tk = frozenset(alg.u_gen(A.rep, m).terms)
        if tk in seen:
            inj = False
        seen.add(tk)
    out.append((f"I_{m} injective on basis keys", "pass" if inj else "fail",
                str(len(seen)), str(len(keys))))
    return out


# ----------------------------------------------------------------------
# structure-constant table


def table_rows(cat: RepCategory, bound: int) -> list:
    """All structure constants for iso classes of total dimension <= bound.

    Rows are (A, B, C) with C a middle term of an extension of A by B, that is
    0 -> B -> C -> A -> 0.  The Hall number g counts the subobjects of C
    isomorphic to B with quotient isomorphic to A, and the Bridgeland
    constant is |Ext^1(A,B)_C| / |Hom(A,B)|.
    """
    alg = HallAlgebra(cat, cross_check="sampled")
    keys = cat.iso_classes_up_to(bound)
    rows = []
    for A in keys:
        for B in keys:
            if sum(A.dim) + sum(B.dim) > bound:
                continue
            prod = alg.product_pair(A, B)
            for C in sorted(prod.terms):
                g = alg.hall_number(A, C, B)
                const = prod.terms[C]
                rows.append({
                    "A": A.label, "B": B.label, "C": C.label,
                    "hall_number": g,
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
