import dataclasses
import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from support import (
    aut_generators_generate,
    direct_product_extension,
    extension_round_trip_iso,
    find_isomorphism,
    homotopy_fiber,
    mixed_radix_position,
    orbifold_torus_sum,
    random_cochain,
    reference_cocycle_message,
    reference_delta_rows,
    reference_first_obstruction,
    reference_flat_basis,
    reference_interval_pairing,
    reference_pullback,
    reference_relative_partition,
    scanned_iota_inverse,
)

from dwkit import anomalies, cochains, linalg
from dwkit.anomalies import (
    Extension,
    NonAbelianCocycle,
    anomaly_report,
    cocycle_from_extension,
    extension_from_cocycle,
    find_boundary_pair,
    find_closed_lift,
    find_section,
    is_first_obstruction_trivial,
    is_invariant_class,
    projective_state_cocycle,
    relative_partition_sectors,
    relative_partition_torus,
)
from dwkit.cochains import (
    Cochain,
    TupleIndex,
    catalog_cocycle,
    coboundary,
    cochain_vector,
    cohomology,
    interval_pairing,
    is_cocycle,
    pullback,
    solve_coboundary,
)
from dwkit.errors import (
    BudgetExceeded,
    DegreeMismatch,
    IncompatiblePhases,
    InvalidCocycle,
    NotABoundaryPair,
    NotACocycle,
    NotGaugeInvariant,
    SectionNotValid,
    VerificationFailed,
)
from dwkit.groupoids import gauge_groupoid
from dwkit.groups import (
    GroupHom,
    cyclic_group,
    dihedral_exponents,
    dihedral_group,
    dihedral_index,
    group_from_table,
    pauli_group,
    product_digits,
    product_group,
    product_index,
)
from dwkit.invariants import (
    ExactPhaseSum,
    dw_partition_torus,
    torus_pairing,
    transgress_circle,
    twisted_irrep_count,
)
from dwkit.linalg import SparseElimination, solve_qz_checked
from dwkit.phase import PhaseValue

from test_invariants import klein_in_d8_extension, type_three_cocycle


# --------------------------------------------------------------------------
# reference extensions


def z4_in_z16_extension(n=4, m=4):
    """0 -> Z_N -> Z_NM -> Z_M -> 0 via the carry cocycle."""
    zn, zm = cyclic_group(n), cyclic_group(m)
    alpha = [list(zn.elements()) for _ in zm.elements()]
    sigma = catalog_cocycle("extension_2cocycle", {"N": n, "M": m})
    return extension_from_cocycle(NonAbelianCocycle(zm, zn, alpha, sigma))


def doubling_extension(n):
    """Z_N^2 inside Z_2N^2 by doubling, quotient Z_2^2."""
    return scaling_extension(n, 2)


def scaling_extension(n, m):
    """Z_n^2 inside Z_nm^2 by multiplication with m, quotient Z_m^2."""
    small, big, top = (product_group([k, k]) for k in (n, n * m, m))
    iota = GroupHom(small, big, [
        product_index([n * m] * 2, [m * a for a in product_digits([n, n], x)])
        for x in small.elements()])
    lam = GroupHom(big, top, [
        product_index([m, m], [a % m for a in product_digits([n * m] * 2, x)])
        for x in big.elements()])
    return Extension(small, big, top, iota, lam, find_section(lam))


def d8_in_pauli_extension():
    d8, p1, z2 = dihedral_group(8), pauli_group(), cyclic_group(2)
    a, b = dihedral_index(8, 1, 0), dihedral_index(8, 0, 1)
    for pa in p1.elements():
        if p1.element_order(pa) != 4:
            continue
        for pb in p1.elements():
            if p1.element_order(pb) != 2:
                continue
            if p1.conjugate(pb, pa) != p1.inverses[pa]:
                continue
            mapping = [0] * 8
            for i in range(4):
                for j in range(2):
                    mapping[dihedral_index(8, i, j)] = p1.mul(
                        p1.power(pa, i), p1.power(pb, j)
                    )
            if len(set(mapping)) != 8:
                continue
            try:
                iota = GroupHom(d8, p1, mapping)
            except ValueError:
                continue
            image = set(mapping)
            if all(
                p1.conjugate(g, x) in image for g in p1.elements() for x in image
            ):
                lam = GroupHom(
                    p1, z2, [0 if x in image else 1 for x in p1.elements()]
                )
                return Extension(d8, p1, z2, iota, lam, find_section(lam))
    raise AssertionError("no normal dihedral subgroup found")


def z2_in_z4_extension():
    z2, z4 = cyclic_group(2), cyclic_group(4)
    iota = GroupHom(z2, z4, [0, 2])
    lam = GroupHom(z4, z2, [0, 1, 0, 1])
    return Extension(z2, z4, z2, iota, lam, find_section(lam))


def center_of_d8_extension():
    """1 -> Z2 = Z(D8) -> D8 -> K4 -> 1, with a^i b^j -> (i mod 2, j)."""
    z2, d8, k4 = cyclic_group(2), dihedral_group(8), product_group([2, 2])
    iota = GroupHom(z2, d8, [0, dihedral_index(8, 2, 0)])
    lam = GroupHom(d8, k4, [
        product_index([2, 2], (i % 2, j))
        for i, j in (dihedral_exponents(8, x) for x in d8.elements())
    ])
    return Extension(z2, d8, k4, iota, lam, find_section(lam))


def center_sign_character():
    """The degree-1 cocycle on Z(D8) = Z2 taking the central element to 1/2."""
    return Cochain(cyclic_group(2), 1, 2, {(1,): PhaseValue(1, 2)})


def z4_boundary_pair():
    """A verified pair (omega' on Z4, theta on Z2) with nontrivial theta."""
    ext = z2_in_z4_extension()
    theta = catalog_cocycle("cyclic_3cocycle", {"N": 2, "k": 1})
    omega_p = solve_coboundary(pullback(ext.lam, theta))
    gamma = solve_coboundary(pullback(ext.iota, omega_p))
    lifted = Cochain(
        ext.total,
        1,
        gamma.modulus,
        {(ext.iota(d),): v for (d,), v in gamma.values.items()},
    )
    omega_p = omega_p - coboundary(lifted)
    assert pullback(ext.iota, omega_p).values == {}
    assert coboundary(omega_p) == pullback(ext.lam, theta)
    return ext, omega_p, theta


def order_sixteen_extension():
    """A central extension of K4 = Z2^2 by K4 with trivial action whose
    total group is non-abelian, with a centre of order 4 and 7
    involutions, and is not the Pauli group."""
    k4 = product_group([2, 2])
    sigma = [[0, 0, 0, 0], [0, 0, 0, 0], [0, 1, 2, 3], [0, 1, 2, 3]]
    alpha = [list(k4.elements()) for _ in k4.elements()]
    return extension_from_cocycle(NonAbelianCocycle(k4, k4, alpha, sigma))


def z2_extension(kernel, aut, s11):
    """Z2 acting on the kernel by the involution ``aut``, with
    sigma(1, 1) = s11."""
    z2 = cyclic_group(2)
    return extension_from_cocycle(NonAbelianCocycle(
        z2, kernel, [list(kernel.elements()), aut], [[0, 0], [0, s11]]))


def cohomology_classes(group, n):
    """Every class of H^n(group; U(1)) as a sum of generator cocycles."""
    coh = cohomology(group, n)
    for coeffs in itertools.product(*map(range, coh.invariant_factors)):
        omega = Cochain.zero(group, n)
        for k, gen in zip(coeffs, coh.generators):
            omega = omega + k * gen
        yield omega


def extension_fixtures():
    """Every extension fixture of these tests, by name."""
    k4 = product_group([2, 2])
    return {
        "Z2<Z4": z2_in_z4_extension(),
        "doubling": doubling_extension(2),
        "Z2<Z4 carry": z4_in_z16_extension(2, 2),
        "Z3<Z6": z4_in_z16_extension(3, 2),
        "Z3<Z9": z4_in_z16_extension(3, 3),
        "Z4<Z16": z4_in_z16_extension(4, 4),
        "D8<Pauli": d8_in_pauli_extension(),
        "K4<D8": klein_in_d8_extension(),
        "Z2<D8": center_of_d8_extension(),
        "order 16": order_sixteen_extension(),
        "Z4<Q8": z2_extension(cyclic_group(4), [0, 3, 2, 1], 2),
        "K4<D8 split": z2_extension(k4, [0, 1, 3, 2], 0),
        "D6xZ2": direct_product_extension(dihedral_group(6), cyclic_group(2)),
    }


# --------------------------------------------------------------------------
# cocycle data and round trips


def test_non_abelian_cocycle_validation():
    z2, z4 = cyclic_group(2), cyclic_group(4)
    alpha = [list(z4.elements()), [0, 3, 2, 1]]
    sigma = [[0, 0], [0, 0]]
    nc = NonAbelianCocycle(z2, z4, alpha, sigma)
    assert nc.act(1, 1) == 3
    with pytest.raises(InvalidCocycle):
        NonAbelianCocycle(z2, z4, alpha, [[0, 0], [0, 1]])
    with pytest.raises(InvalidCocycle):
        NonAbelianCocycle(z2, z4, [list(z4.elements()), [0, 2, 1, 3]], sigma)


def bent_cocycles(nc, rng):
    """(alpha, sigma) of ``nc`` with one seeded change each: an alpha(g)
    replaced by a different alpha, two of its values swapped, or a sigma
    value moved."""
    g_order, d_order = nc.group.order, nc.kernel.order
    for kind in ("swap alpha", "transpose alpha", "move sigma") * 3:
        a, s = [list(x) for x in nc.alpha], [list(x) for x in nc.sigma]
        g = rng.randrange(1, g_order)
        others = [list(x) for x in nc.alpha if list(x) != a[g]]
        if kind == "swap alpha" and others:
            a[g] = rng.choice(others)
        elif kind != "move sigma" and d_order > 2:
            i, j = rng.sample(range(1, d_order), 2)
            a[g][i], a[g][j] = a[g][j], a[g][i]
        else:
            h = rng.randrange(g_order)
            s[g][h] = rng.choice([d for d in range(d_order) if d != s[g][h]])
        yield a, s


def test_cocycle_checks_match_the_exhaustive_scan():
    rng, verdicts = random.Random(31), set()
    z2, z2z4 = cyclic_group(2), product_group([2, 4])
    # alpha(1) is multiplicative on right factors in <(0, 1)>, not on (1, 0)
    cases = [(z2, z2z4, [range(8), [x - x % 4 + (x // 4 + x) % 4 for x in range(8)]],
              [[0, 0], [0, 0]])]
    for ext in extension_fixtures().values():
        nc = cocycle_from_extension(ext)
        cases += [(nc.group, nc.kernel, alpha, sigma)
                  for alpha, sigma in bent_cocycles(nc, rng)]
    for g_grp, d_grp, alpha, sigma in cases:
        want = reference_cocycle_message(g_grp, d_grp, alpha, sigma)
        try:
            NonAbelianCocycle(g_grp, d_grp, alpha, sigma)
        except InvalidCocycle as exc:
            assert str(exc) == want
        else:
            assert want is None
        verdicts.add(want and want.split(" at ")[0])
    assert verdicts >= {None, "alpha(1) is not a homomorphism",
                        "twisted-homomorphism relation fails",
                        "cocycle relation fails"}


def test_extension_validation():
    z2, z4 = cyclic_group(2), cyclic_group(4)
    iota = GroupHom(z2, z4, [0, 2])
    lam = GroupHom(z4, z2, [0, 1, 0, 1])
    with pytest.raises(SectionNotValid):
        Extension(z2, z4, z2, iota, lam, (0, 2))
    with pytest.raises(SectionNotValid):
        Extension(z2, z4, z2, iota, lam, (1, 3))
    # -1 would index Ghat's last element, which lambda maps to 1
    for section in ((0, 9), (0, -1)):
        with pytest.raises(SectionNotValid, match="values in Ghat"):
            Extension(z2, z4, z2, iota, lam, section)


def test_extension_rejects_homs_on_other_groups():
    """iota and lambda must run D -> Ghat -> G on the groups named: homs
    through Z4 do not make an extension with total group K4, which the
    report would read through Z4's element indices."""
    z2, z4, k4 = cyclic_group(2), cyclic_group(4), product_group([2, 2])
    iota = GroupHom(z2, z4, [0, 2])
    lam = GroupHom(z4, z2, [0, 1, 0, 1])
    with pytest.raises(SectionNotValid, match="iota must map D to Ghat"):
        Extension(z2, k4, z2, iota, lam, (0, 1))
    with pytest.raises(SectionNotValid, match="iota must map D to Ghat"):
        Extension(z4, z4, z2, iota, lam, (0, 1))
    # equal groups on other objects still make the extension
    def fresh(n):
        return group_from_table(n, cyclic_group(n).table, label=f"Z{n}")
    ext = Extension(fresh(2), fresh(4), fresh(2), iota, lam, (0, 1))
    assert ext.total == z4 and ext.total is not z4


def test_carry_cocycle_builds_cyclic_group():
    for n, m in ((2, 2), (3, 2), (4, 4)):
        ext = z4_in_z16_extension(n, m)
        iso = find_isomorphism(ext.total, cyclic_group(n * m))
        assert iso is not None


def test_extension_round_trip():
    for ext in (
        klein_in_d8_extension(),
        z2_in_z4_extension(),
        z4_in_z16_extension(2, 2),
        direct_product_extension(dihedral_group(6), cyclic_group(2)),
    ):
        phi = extension_round_trip_iso(ext)
        assert phi.is_injective() and phi.is_surjective()


def test_cocycle_from_extension_round_trip():
    ext = z2_in_z4_extension()
    nc = cocycle_from_extension(ext)
    rebuilt = extension_from_cocycle(nc)
    assert find_isomorphism(rebuilt.total, ext.total) is not None


def test_pauli_extension_shape():
    ext = d8_in_pauli_extension()
    assert ext.total.order == 16 and ext.kernel.order == 8
    phi = extension_round_trip_iso(ext)
    assert phi.is_surjective()


# --------------------------------------------------------------------------
# invariance and the first obstruction


def test_invariant_class_with_witnesses():
    ext = klein_in_d8_extension()
    w1 = catalog_cocycle("product_2cocycle", {"N": 2, "k": 1})
    ok, phis = is_invariant_class(ext, w1)
    assert ok
    g_grp = ext.quotient
    for g in g_grp.elements():
        ginv = g_grp.inverses[g]
        target = w1 - pullback(ext.action(ginv), w1)
        assert coboundary(phis[g]) == target


def test_first_obstruction_fails_for_doubling():
    ext = doubling_extension(2)
    w1 = catalog_cocycle("product_2cocycle", {"N": 2, "k": 1})
    ok, phis = is_invariant_class(ext, w1)
    assert ok
    ok2, _ = is_first_obstruction_trivial(ext, w1, phis)
    assert not ok2
    report = anomaly_report(ext, w1)
    assert report.verdict == "first_obstruction_fails"
    assert report.invariant_class and not report.first_obstruction_trivial


def first_obstruction_oracle(ext, omega, phis):
    """Brute-force reference for is_first_obstruction_trivial.

    Works in the class coordinates of H^{n-1}(D) = sum of Z/slot_j: tries
    every correction Phi_g -> Phi_g + x_g (g != 1) by a class vector x_g
    and decides [U] + delta_G x = 0 pair by pair, with the G-action on
    classes read off by classify.  No linear system is solved.
    """
    g_grp, d_grp, ghat, s = ext.quotient, ext.kernel, ext.total, ext.section
    inv, mul = g_grp.inverses, g_grp.mul
    coh = cohomology(d_grp, omega.degree - 1)
    slots = coh.invariant_factors
    ident = GroupHom.identity(d_grp)

    def sigma(a, b):
        return ext.iota_inverse(
            ghat.word([s[a], s[b], ghat.inverses[s[mul(a, b)]]]))

    act = {g: [coh.classify(pullback(ext.action(g), gen))
               for gen in coh.generators] for g in g_grp.elements()}
    u = {}
    for g1, g2 in itertools.product(g_grp.elements(), repeat=2):
        i1, i2 = inv[g1], inv[g2]
        u[g1, g2] = coh.classify(
            phis[i1] + pullback(ext.action(g1), phis[i2])
            - phis[inv[mul(g1, g2)]]
            + interval_pairing(omega, sigma(i1, i2), ident))

    def acted(g, v):
        return [sum(v[j] * act[g][j][i] for j in range(len(slots)))
                for i in range(len(slots))]

    non_id = g_grp.nonidentity()
    classes = list(itertools.product(*map(range, slots)))
    for xs in itertools.product(classes, repeat=len(non_id)):
        x = dict(zip(non_id, xs))
        x[g_grp.identity] = (0,) * len(slots)
        if all((u[g1, g2][i] + x[inv[g1]][i] + acted(g1, x[inv[g2]])[i]
                - x[inv[mul(g1, g2)]][i]) % slot == 0
               for g1, g2 in u for i, slot in enumerate(slots)):
            return True
    return False


def test_first_obstruction_matches_brute_force_oracle(monkeypatch):
    w1 = catalog_cocycle("product_2cocycle", {"N": 2, "k": 1})
    rng = random.Random(11)
    cases = [
        (doubling_extension(2), w1),
        (d8_in_pauli_extension(), catalog_cocycle("dihedral8_2cocycle", {})),
        (klein_in_d8_extension(), w1 + coboundary(
            random_cochain(product_group([2, 2]), 1, 2, rng))),
    ]
    for ext in (z2_in_z4_extension(), z4_in_z16_extension(3, 3)):
        cases += [(ext, omega) for omega in cohomology_classes(ext.kernel, 3)]
    ext = order_sixteen_extension()
    cases += [(ext, omega)
              for omega in itertools.islice(cohomology_classes(ext.kernel, 3), 1, None)]
    # the action decides these: Z2 inverts Z4 inside Q8, and swaps two
    # elements of K4 inside D8 = K4 x| Z2
    q8 = z2_extension(cyclic_group(4), [0, 3, 2, 1], 2)
    cases += [(q8, omega) for omega in cohomology_classes(q8.kernel, 3)]
    cases.append((z2_extension(product_group([2, 2]), [0, 1, 3, 2], 0), w1))
    assert len(cases) == 3 + 2 + 3 + 7 + 4 + 1

    def forbidden(*_args):
        raise AssertionError("the oracle must not solve a linear system")

    verdicts = []
    for ext, omega in cases:
        ok, phis = is_invariant_class(ext, omega)
        assert ok
        got, _ = is_first_obstruction_trivial(ext, omega, phis)
        with monkeypatch.context() as mp:
            mp.setattr(SparseElimination, "solve", forbidden)
            assert first_obstruction_oracle(ext, omega, phis) == got
        verdicts.append(got)
    assert verdicts == [False, False] + [True] * 18


def _obstruction_cochain(ext, omega, family, g1, g2):
    """U(g1, g2) of a Phi family, from the section, a kernel scan and the
    PhaseValue references for the pullback and the slant."""
    g_grp, ghat, s = ext.quotient, ext.total, ext.section
    inv, mul = g_grp.inverses, g_grp.mul
    i1, i2 = inv[g1], inv[g2]
    sigma = scanned_iota_inverse(
        ext, ghat.word([s[i1], s[i2], ghat.inverses[s[mul(i1, i2)]]]))
    return (family[i1] + reference_pullback(ext.action(g1), family[i2])
            - family[inv[mul(g1, g2)]]
            + reference_interval_pairing(
                omega, sigma, GroupHom.identity(ext.kernel)))


def _is_corrected_family(ext, omega, phis, family):
    """Phi_1 = 0, every correction Phi'_g - Phi_g closed, and every U of
    the family, identity pairs included, a coboundary."""
    g_grp = ext.quotient
    return (family[g_grp.identity].is_zero()
            and all(is_cocycle(family[g] - phis[g]) for g in g_grp.elements())
            and all(solve_coboundary(_obstruction_cochain(
                ext, omega, family, g1, g2)) is not None
                for g1, g2 in itertools.product(g_grp.elements(), repeat=2)))


def test_normalized_first_obstruction_matches_the_all_pairs_system():
    """Dropping the pairs that hold the identity decides as the full
    |G|^2 system does, and both corrected families re-verify on every
    pair."""
    rng = random.Random(27)
    verdicts = {}
    for name, ext in extension_fixtures().items():
        for n in (2, 3):
            for omega in itertools.islice(cohomology_classes(ext.kernel, n), 4):
                m = max(2, omega.modulus)
                omega = omega + coboundary(
                    random_cochain(ext.kernel, n - 1, m, rng))
                ok, phis = is_invariant_class(ext, omega)
                if not ok:
                    continue
                got, family = is_first_obstruction_trivial(ext, omega, phis)
                want, ref = reference_first_obstruction(ext, omega, phis)
                assert got == want, (name, n)
                verdicts[got] = verdicts.get(got, 0) + 1
                if got:
                    assert _is_corrected_family(ext, omega, phis, family)
                    assert _is_corrected_family(ext, omega, phis, ref)
    assert verdicts == {True: 55, False: 3}


def test_first_obstruction_forms_its_obstructions_as_vectors(monkeypatch):
    """One call makes at most |G| - 1 Cochain sums, the corrections
    Phi_g + c_g, and returns the verdict and the exact family of the same
    normalized system formed from Cochains."""
    rng = random.Random(29)
    combine, sums, verdicts = Cochain._combine, [], set()

    def counting(self, other, sign):
        sums.append(sign)
        return combine(self, other, sign)

    for name, ext in extension_fixtures().items():
        for n in (2, 3):
            for omega in itertools.islice(cohomology_classes(ext.kernel, n), 2):
                m = max(2, omega.modulus)
                omega = omega + coboundary(
                    random_cochain(ext.kernel, n - 1, m, rng))
                ok, phis = is_invariant_class(ext, omega)
                if not ok:
                    continue
                sums.clear()
                with monkeypatch.context() as mp:
                    mp.setattr(Cochain, "_combine", counting)
                    got = is_first_obstruction_trivial(ext, omega, phis)
                assert len(sums) <= ext.quotient.order - 1, (name, n)
                want = reference_first_obstruction(ext, omega, phis,
                                                   normalized=True)
                assert _exact(got) == _exact(want), (name, n)
                verdicts.add(got[0])
    assert verdicts == {True, False}


def test_first_obstruction_rejects_a_family_whose_obstruction_is_not_closed():
    ext = doubling_extension(2)
    omega = catalog_cocycle("product_2cocycle", {"N": 2, "k": 1})
    _ok, phis = is_invariant_class(ext, omega)
    g = ext.quotient.nonidentity()[0]
    bent = Cochain(ext.kernel, 1, 4, {(1,): PhaseValue(1, 4)})
    assert not is_cocycle(bent)
    with pytest.raises(NotACocycle, match="obstruction cochain must be closed"):
        is_first_obstruction_trivial(ext, omega, {**phis, g: phis[g] + bent})


def test_extension_keeps_each_action_map():
    for name, ext in extension_fixtures().items():
        for g in ext.quotient.elements():
            hom = ext.action(g)
            assert ext.action(g) is hom, name
            assert (hom.source, hom.target) == (ext.kernel, ext.kernel)
            assert hom.map == tuple(
                scanned_iota_inverse(ext, ext.total.conjugate(
                    ext.section[g], ext.iota(d)))
                for d in ext.kernel.elements()), name


def test_extension_keeps_each_acted_position_table():
    """alpha(g)^* as positions on TupleIndex(D, n) is built once per
    (g, n), read by every first-obstruction call on the extension."""
    for name, ext in extension_fixtures().items():
        for n in (1, 2):
            index = TupleIndex(ext.kernel, n)
            for g in ext.quotient.elements():
                table = ext.acted_positions(g, n)
                assert ext.acted_positions(g, n) is table, name
                assert table == [
                    mixed_radix_position(index, tuple(map(ext.action(g), t)))
                    for t in index.all()], name
    ext = doubling_extension(2)
    omega = catalog_cocycle("product_2cocycle", {"N": 2, "k": 1})
    _ok, phis = is_invariant_class(ext, omega)
    is_first_obstruction_trivial(ext, omega, phis)
    kept = dict(ext._acted)
    assert set(kept) == {(g, 1) for g in ext.quotient.nonidentity()}
    is_first_obstruction_trivial(ext, omega, phis)
    assert ext._acted.keys() == kept.keys()
    assert all(ext._acted[k] is table for k, table in kept.items())


def test_first_obstruction_rejects_an_unnormalized_family_before_building(
        monkeypatch):
    ext = doubling_extension(2)
    omega = catalog_cocycle("product_2cocycle", {"N": 2, "k": 1})
    ok, phis = is_invariant_class(ext, omega)
    assert ok and phis[ext.quotient.identity].is_zero()
    # a closed Phi_1 != 0 still solves delta Phi_1 = omega - omega
    shifted = dict(phis)
    shifted[ext.quotient.identity] = Cochain(
        ext.kernel, 1, 2, {(1,): PhaseValue(1, 2), (3,): PhaseValue(1, 2)})
    assert is_cocycle(shifted[ext.quotient.identity])

    def forbidden(*_args, **_kwargs):
        raise AssertionError("nothing may be built for an unnormalized family")

    for name in ("TupleIndex", "delta_matrix_rows", "interval_pairing",
                 "solve_qz_checked", "_ext_sigma"):
        monkeypatch.setattr(anomalies, name, forbidden)
    monkeypatch.setattr(Extension, "action", forbidden)
    with pytest.raises(IncompatiblePhases, match="Phi_1 = 0") as info:
        is_first_obstruction_trivial(ext, omega, shifted)
    assert isinstance(info.value, ValueError)


def test_first_obstruction_slants_once_per_sigma_value(monkeypatch):
    calls = []

    def counting(omega, s, iota):
        calls.append(s)
        return interval_pairing(omega, s, iota)

    monkeypatch.setattr(anomalies, "interval_pairing", counting)
    fewer = False
    for name, ext in extension_fixtures().items():
        g_grp, ghat, s = ext.quotient, ext.total, ext.section
        omega = next(itertools.islice(cohomology_classes(ext.kernel, 2), 1,
                                      None), Cochain.zero(ext.kernel, 2))
        ok, phis = is_invariant_class(ext, omega)
        if not ok:
            continue
        nonid = g_grp.nonidentity()
        values = {scanned_iota_inverse(ext, ghat.word(
            [s[a], s[b], ghat.inverses[s[g_grp.mul(a, b)]]]))
            for a in nonid for b in nonid}
        calls.clear()
        is_first_obstruction_trivial(ext, omega, phis)
        assert sorted(calls) == sorted(values), name
        fewer |= len(calls) < len(nonid) ** 2
    assert fewer


def test_iota_inverse_matches_the_kernel_scan():
    for name, ext in extension_fixtures().items():
        image = set(ext.iota.map)
        for x in ext.total.elements():
            want = scanned_iota_inverse(ext, x)
            assert (want is None) == (x not in image), name
            if want is None:
                with pytest.raises(SectionNotValid, match="image of iota"):
                    ext.iota_inverse(x)
            else:
                assert ext.iota_inverse(x) == want, name
        for g in ext.quotient.elements():
            assert ext.action(g).map == tuple(
                scanned_iota_inverse(ext, ext.total.conjugate(
                    ext.section[g], ext.iota(d)))
                for d in ext.kernel.elements()), name


def test_anomaly_report_rejects_degree_one():
    with pytest.raises(DegreeMismatch, match="deg omega >= 2"):
        anomaly_report(center_of_d8_extension(), center_sign_character())


def test_first_obstruction_rejects_degree_one_before_building(monkeypatch):
    ext, omega = z2_in_z4_extension(), center_sign_character()
    ok, phis = is_invariant_class(ext, omega)
    assert ok

    def forbidden(*_args):
        raise AssertionError("no index may be built for a degree-1 omega")

    monkeypatch.setattr(anomalies, "TupleIndex", forbidden)
    with pytest.raises(DegreeMismatch, match="deg omega >= 2, got 1"):
        is_first_obstruction_trivial(ext, omega, phis)


# --------------------------------------------------------------------------
# closed lifts and boundary pairs


def test_closed_lift_of_zero():
    ext = z2_in_z4_extension()
    lift = find_closed_lift(ext, Cochain.zero(ext.kernel, 2))
    assert lift is not None and is_cocycle(lift)


def test_closed_lift_degree_three():
    ext = z2_in_z4_extension()
    theta = catalog_cocycle("cyclic_3cocycle", {"N": 2, "k": 1})
    lift = find_closed_lift(ext, theta)
    assert lift is not None
    assert pullback(ext.iota, lift) == theta
    report = anomaly_report(ext, theta)
    assert report.verdict == "anomaly_free"
    assert report.theta_class == ()
    omega_p, bulk = report.boundary_pair
    assert bulk.values == {} and omega_p == report.closed_lift


def test_no_closed_lift_in_pauli():
    ext = d8_in_pauli_extension()
    omega = catalog_cocycle("dihedral8_2cocycle", {})
    assert find_closed_lift(ext, omega) is None
    report = anomaly_report(ext, omega)
    assert report.verdict == "first_obstruction_fails"


def test_no_boundary_pair_for_doubling_at_escalated_moduli():
    """No modulus to escalate: one solve over Q/Z decides the pair, and its
    None is backed by a certificate checked against the rows as built."""
    ext = doubling_extension(2)
    w1 = catalog_cocycle("product_2cocycle", {"N": 2, "k": 1})
    assert find_boundary_pair(ext, w1) is None


def test_boundary_pair_from_lift_has_trivial_class():
    ext = klein_in_d8_extension()
    w1 = catalog_cocycle("product_2cocycle", {"N": 2, "k": 1})
    pair = find_boundary_pair(ext, w1)
    assert pair is not None
    omega_p, theta = pair
    assert pullback(ext.iota, omega_p) == w1
    assert coboundary(omega_p) == pullback(ext.lam, theta)
    coh = cohomology(ext.quotient, 3)
    assert coh.classify(theta) == (0,) * len(coh.invariant_factors)


def test_lift_path_builds_no_bulk_group(monkeypatch):
    """An anomaly-free report names no bulk class, so it computes no bulk
    group: theta_class is (), the zero class with no coordinates, where
    H^3(G) is Z2 (K4 inside D8) and Z3^3 (Z2^2 inside Z6^2)."""
    def no_bulk_group(group, n, *args, **kwargs):
        raise AssertionError(f"H^{n} of the quotient built for a closed lift")

    monkeypatch.setattr(anomalies, "cohomology", no_bulk_group)
    w1 = catalog_cocycle("product_2cocycle", {"N": 2, "k": 1})
    for ext in (klein_in_d8_extension(), scaling_extension(2, 3)):
        report = anomaly_report(ext, w1)
        assert report.verdict == "anomaly_free"
        assert report.theta_class == ()
        lift = report.closed_lift
        assert coboundary(lift).is_zero() and is_cocycle(lift)
        assert pullback(ext.iota, lift) == w1
        assert report.boundary_pair[0] is lift
        assert report.boundary_pair[1] == Cochain.zero(ext.quotient, 3)


def test_report_classifies_the_bulk_theta_of_a_boundary_pair(monkeypatch):
    """No tier-1 input reaches the boundary-pair branch, so K4 inside D8 is
    sent there by hiding its closed lift: theta_class is the class of the
    returned theta in H^3(G), with one coordinate per invariant factor."""
    monkeypatch.setattr(anomalies, "find_closed_lift", lambda ext, omega: None)
    ext = klein_in_d8_extension()
    w1 = catalog_cocycle("product_2cocycle", {"N": 2, "k": 1})
    report = anomaly_report(ext, w1)
    assert report.verdict == "thooft_anomalous_with_bulk"
    assert report.closed_lift is None
    omega_p, theta = report.boundary_pair
    assert pullback(ext.iota, omega_p) == w1
    assert coboundary(omega_p) == pullback(ext.lam, theta)
    assert report.theta_class == cohomology(ext.quotient, 3).classify(theta)
    assert report.theta_class == (0,)


def test_report_refuses_an_oversized_bulk_before_seeking_a_lift(monkeypatch):
    """Z2 inside Z2^5 with the H^3(Z2) generator passes d2, and is refused
    there by the budget of H^4(Z2^4), with the message cohomology gives,
    before the closed-lift system (148,955 x 29,791) is built."""
    z2, ghat, g_grp = cyclic_group(2), product_group([2] * 5), product_group([2] * 4)
    iota = GroupHom(z2, ghat, [product_index([2] * 5, (a, 0, 0, 0, 0))
                               for a in z2.elements()])
    lam = GroupHom(ghat, g_grp, [
        product_index([2] * 4, product_digits([2] * 5, x)[1:])
        for x in ghat.elements()])
    ext = Extension(z2, ghat, g_grp, iota, lam, find_section(lam))
    omega = catalog_cocycle("cyclic_3cocycle", {"N": 2, "k": 1})
    stages = []

    def first_obstruction(*args):
        stages.append("d2")
        return is_first_obstruction_trivial(*args)

    def no_lift(*args):
        raise AssertionError("closed lift sought past the bulk budget")

    monkeypatch.setattr(anomalies, "is_first_obstruction_trivial",
                        first_obstruction)
    monkeypatch.setattr(anomalies, "find_closed_lift", no_lift)
    with pytest.raises(BudgetExceeded) as refused:
        anomaly_report(ext, omega)
    assert stages == ["d2"]
    with pytest.raises(BudgetExceeded) as bulk:
        cohomology(g_grp, 4)
    assert str(refused.value) == str(bulk.value) == (
        "bar matrix for H^4(Z2xZ2xZ2xZ2): size 79734375 exceeds "
        "budget 4194304")


def _exact(x):
    """x with every cochain spelled out with its modulus, so == compares
    representatives and not only classes."""
    if isinstance(x, Cochain):
        return (x.group, x.degree, x.loops, x.modulus, x.values)
    if isinstance(x, (tuple, list)):
        return tuple(_exact(v) for v in x)
    if isinstance(x, dict):
        return {k: _exact(v) for k, v in x.items()}
    if dataclasses.is_dataclass(x):
        return _exact([getattr(x, f.name) for f in dataclasses.fields(x)])
    return x


def test_warm_searches_equal_cold_ones(monkeypatch):
    """Memo hits replay the elimination that a miss made: every report,
    lift and pair (or None) of the second round equals the first's, and
    each distinct system is eliminated once."""
    keys = []

    def recording(key, build, b, den, finish):
        keys.append(key)
        return solve_qz_checked(key, build, b, den, finish)

    monkeypatch.setattr(anomalies, "solve_qz_checked", recording)
    monkeypatch.setattr(cochains, "solve_qz_checked", recording)
    cases = []
    for ext, n in ((doubling_extension(2), 2), (z4_in_z16_extension(4, 2), 3)):
        cases += [(ext, omega) for omega in cohomology_classes(ext.kernel, n)]
    assert len(cases) == 2 + 4

    def one_round():
        return [_exact((anomaly_report(ext, omega),
                        find_closed_lift(ext, omega),
                        find_boundary_pair(ext, omega),
                        is_first_obstruction_trivial(
                            ext, omega, is_invariant_class(ext, omega)[1])))
                for ext, omega in cases]

    solve_qz_checked.cache_clear()
    first = one_round()
    misses = solve_qz_checked.cache_info().misses
    assert misses == len(set(keys))
    assert one_round() == first
    assert solve_qz_checked.cache_info().misses == misses
    assert [r[0][-1] for r in first] == [
        "anomaly_free", "first_obstruction_fails"] + ["anomaly_free"] * 4
    assert [r[2] is None for r in first] == [False, True] + [False] * 4
    assert [r[3][0] for r in first] == [True, False] + [True] * 4


def test_pivot_solutions_equal_full_solves_on_every_memo_entry(monkeypatch):
    """On the extensions and classes of the warm/cold test, two rounds of
    reports and boundary pairs: for every right-hand side a memo entry saw,
    solve_pivots gives solve's (x, m) whenever b is solvable."""
    seen = []

    def recording(key, build, b, den, finish):
        seen.append((key, b, den))
        return solve_qz_checked(key, build, b, den, finish)

    monkeypatch.setattr(anomalies, "solve_qz_checked", recording)
    monkeypatch.setattr(cochains, "solve_qz_checked", recording)
    solve_qz_checked.cache_clear()
    for _round in range(2):
        for ext, n in ((doubling_extension(2), 2),
                       (z4_in_z16_extension(4, 2), 3)):
            for omega in cohomology_classes(ext.kernel, n):
                anomaly_report(ext, omega)
                find_boundary_pair(ext, omega)
    entries = linalg._eliminations.entries
    assert {key for key, _b, _den in seen} == {
        key for _engine, key in entries}
    solvable = 0
    for key, b, den in seen:
        elim = entries[SparseElimination, key]
        sol, _y = elim.solve(b, den)
        if sol is not None:
            solvable += 1
            assert elim.solve_pivots(b, den) == sol
    assert 0 < solvable < len(seen)
    solve_qz_checked.cache_clear()


# --------------------------------------------------------------------------
# relative partition functions


def test_split_relative_partition_trivial_sector():
    d8, z2 = dihedral_group(8), cyclic_group(2)
    ext = direct_product_extension(d8, z2)
    retraction = GroupHom(ext.total, d8, [x % 8 for x in range(16)])
    omega = catalog_cocycle("dihedral8_2cocycle", {})
    omega_hat = pullback(retraction, omega)
    assert pullback(ext.iota, omega_hat) == omega
    zero_theta = Cochain.zero(z2, 3, 1)
    value = relative_partition_torus(ext, omega_hat, zero_theta, (0, 0))
    assert value == twisted_irrep_count(d8, omega) == 2


def test_anomalous_relative_partition_sectors():
    ext, omega_p, theta = z4_boundary_pair()
    sectors = {
        phi: relative_partition_torus(ext, omega_p, theta, phi).value
        for phi in itertools.product(range(2), repeat=2)
    }
    assert sectors == {(0, 0): 2, (0, 1): 0, (1, 0): 0, (1, 1): 0}


def test_relative_partition_coboundary_invariance():
    ext, omega_p, theta = z4_boundary_pair()
    rng = random.Random(17)
    for _ in range(3):
        beta = random_cochain(ext.total, 1, 4, rng)
        shifted = omega_p + coboundary(beta)
        for phi in ((0, 0), (1, 1)):
            assert relative_partition_torus(
                ext, shifted, theta, phi
            ) == relative_partition_torus(ext, omega_p, theta, phi)


def test_relative_partition_conjugation_invariance():
    d8, z2 = dihedral_group(8), cyclic_group(2)
    ext = direct_product_extension(d8, z2)
    retraction = GroupHom(ext.total, d8, [x % 8 for x in range(16)])
    omega_hat = pullback(retraction, catalog_cocycle("dihedral8_2cocycle", {}))
    zero_theta = Cochain.zero(z2, 3, 1)
    g_grp = ext.quotient
    for phi in itertools.product(g_grp.elements(), repeat=2):
        for g in g_grp.elements():
            conj = tuple(g_grp.conjugate(g, x) for x in phi)
            assert relative_partition_torus(
                ext, omega_hat, zero_theta, conj
            ) == relative_partition_torus(ext, omega_hat, zero_theta, phi)


def test_relative_partition_theta_cylinder_term():
    # Ghat = D8 is non-abelian: without the theta-cylinder term on the
    # fibre objects (phihat, h) with h != 1 the integrand is not gauge
    # invariant (unlike for the abelian Z2 in Z4 pair)
    ext = center_of_d8_extension()
    omega_p, theta = find_boundary_pair(ext, center_sign_character())
    assert cohomology(ext.quotient, 2).classify(theta) == (1,)
    ghat, z = ext.total, ext.iota(1)
    for g in ext.quotient.elements():
        # the two lifts of g differ by z, where omega' = omega = 1/2, so
        # their phases cancel
        x = ext.section[g]
        assert {y for y in ghat.elements() if ext.lam(y) == g} == {
            x, ghat.mul(x, z),
        }
        shift = omega_p.value((ghat.mul(x, z),)) - omega_p.value((x,))
        assert shift == PhaseValue(1, 2)
        assert relative_partition_torus(ext, omega_p, theta, (g,)).value == 0


# (fixture, n, generator index) whose anomaly_report the d3 stage leaves
# undecided
_UNDECIDED = {("order 16", 3, 0), ("order 16", 3, 1), ("order 16", 3, 2)}


def kernel_reports(name, ext, n):
    """Yield (omega, report) for the first (up to) 4 generators of H^n(D),
    report None on one pinned in _UNDECIDED; then, of the generators that
    are pinned or not anomaly_free, the sum of the first with each later
    one, since the basis is not chosen for verdicts: on H^3(K4), Z2^3, the
    classes that fail invariance (K4 < D8) or raise (order 16) are those
    off an index-2 subgroup, so two such generators sum into it."""
    failed = []
    for i, omega in enumerate(cohomology(ext.kernel, n).generators[:4]):
        pinned = (name, n, i) in _UNDECIDED
        report = None if pinned else anomaly_report(ext, omega)
        yield omega, report
        if pinned or report.verdict != "anomaly_free":
            failed.append(omega)
    for omega in failed[1:]:
        omega = failed[0] + omega
        yield omega, anomaly_report(ext, omega)


def test_gauging_an_anomaly_free_lift_gives_the_dw_invariant_of_ghat():
    """Gauging G in the relative theory of an anomaly-free lift omegahat is
    the pushforward to the DW theory of (Ghat, omegahat): on T^n,
    (1/|G|) sum_phi Z_rel(phi) = Z(T^n; Ghat, omegahat).  The lifts come
    from anomaly_report on the first (up to) 4 generators of H^n(D), each
    shifted by a seeded coboundary on Ghat.  The two sides share only the
    group tables and the cochains: fibre sums against torus sums.  The
    generators of H^3 of the order-16 kernel are pinned where the d3 stage
    leaves them undecided; sums of two generators that do not lift are
    tried too (``kernel_reports``).  Deciding that stage must remove the
    pins."""
    rng = random.Random(16)
    lifts = 0
    for name, ext in extension_fixtures().items():
        ghat = ext.total
        zero = {n: Cochain.zero(ext.quotient, n + 1) for n in (2, 3)}
        for n in (2, 3):
            for omega, report in kernel_reports(name, ext, n):
                if report is None:
                    with pytest.raises(VerificationFailed,
                                       match="d3 stage is undecided"):
                        anomaly_report(ext, omega)
                    continue
                if report.verdict != "anomaly_free":
                    continue
                lift = report.closed_lift + coboundary(
                    random_cochain(ghat, n - 1, 4, rng))
                assert orbifold_torus_sum(ext, lift, zero[n]) == (
                    dw_partition_torus(ghat, lift, n).value), name
                lifts += 1
    assert lifts == 22


def test_theta_cylinder_sign_on_a_nonabelian_quotient():
    """On the exact bulk pair (omegahat + lambda^* beta, delta beta) of
    Z3 x S3 -> S3 (n = 2, omegahat the anomaly-free lift of 0), every
    sector's fibre integrand is gauge invariant, and the sectors weighted
    by exp(-2 pi i <beta, T_phi>) sum to |G| Z(T^2; Ghat, omegahat).  A
    non-abelian G is needed: there the theta-cylinder term is not symmetric
    in its holonomies, so its sign shows."""
    z3, s3 = cyclic_group(3), dihedral_group(6)
    ext = direct_product_extension(z3, s3)
    lift = anomaly_report(ext, Cochain.zero(z3, 2)).closed_lift
    want = dw_partition_torus(ext.total, lift, 2).value
    sectors = [phi for phi in itertools.product(s3.elements(), repeat=2)
               if s3.commute(*phi)]
    rng, evaluated = random.Random(6), 0
    for _ in range(5):
        beta = random_cochain(s3, 2, 6, rng)
        omega_p, theta = lift + pullback(ext.lam, beta), coboundary(beta)
        weights = {}
        for phi in sectors:
            # raises NotGaugeInvariant if the integrand is not gauge invariant
            z = relative_partition_torus(ext, omega_p, theta, phi).phase_sum
            evaluated += 1
            shift = PhaseValue(-torus_pairing(beta.numerators(), phi), 6)
            for r, c in enumerate(z.counts):
                p = (PhaseValue(r, z.modulus) + shift).reduced()
                weights[p] = weights.get(p, 0) + Fraction(c, s3.order)
        assert ExactPhaseSum.from_weights(weights).as_rational() == want
    assert evaluated == 90


def test_relative_partition_empty_fibre_is_zero():
    # a rotation and a reflection of D8 commute in K4 = D8/Z(D8), but no
    # lifts of them commute in D8
    ext = center_of_d8_extension()
    a, b = dihedral_index(8, 1, 0), dihedral_index(8, 0, 1)
    phi = (ext.lam(a), ext.lam(b))
    omega_p = Cochain.zero(ext.total, 2, 1)
    theta = Cochain.zero(ext.quotient, 3, 1)
    assert homotopy_fiber(ext.lam, phi).objects() == ()
    assert relative_partition_torus(ext, omega_p, theta, phi).value == 0


def first_anomaly_free_report(name, ext):
    """The first anomaly_free report of ``kernel_reports``, n = 2 then
    3."""
    for n in (2, 3):
        for _omega, report in kernel_reports(name, ext, n):
            if report is not None and report.verdict == "anomaly_free":
                return report


def relative_pairs():
    """Boundary pairs (ext, omega', theta): z4_boundary_pair, the exact bulk
    pairs of Z3 x S3 -> S3 that the theta-cylinder sign test builds, and
    per extension fixture the first anomaly-free lift with theta = 0,
    shifted by a seeded coboundary on Ghat."""
    yield z4_boundary_pair()
    z3, s3 = cyclic_group(3), dihedral_group(6)
    ext = direct_product_extension(z3, s3)
    lift = anomaly_report(ext, Cochain.zero(z3, 2)).closed_lift
    rng = random.Random(6)
    for _ in range(5):
        beta = random_cochain(s3, 2, 6, rng)
        yield ext, lift + pullback(ext.lam, beta), coboundary(beta)
    rng = random.Random(36)
    for name, ext in extension_fixtures().items():
        lift = first_anomaly_free_report(name, ext).closed_lift
        n = lift.degree
        yield (ext, lift + coboundary(random_cochain(ext.total, n - 1, 4, rng)),
               Cochain.zero(ext.quotient, n + 1))


def test_relative_sectors_match_single_sectors_and_the_fibre_integral():
    """relative_partition_sectors covers every commuting n-tuple of G, and
    in each sector its phase sum (counts and modulus) and value equal those
    of relative_partition_torus and of support's integral over the
    homotopy fibre."""
    pairs = 0
    for ext, omega_p, theta in relative_pairs():
        sectors = relative_partition_sectors(ext, omega_p, theta)
        assert list(sectors) == list(
            gauge_groupoid(ext.quotient, omega_p.degree).objects())
        for phi, z in sectors.items():
            want = (z.phase_sum.counts, z.phase_sum.modulus, z.value)
            for other in (relative_partition_torus(ext, omega_p, theta, phi),
                          reference_relative_partition(ext, omega_p, theta, phi)):
                assert (other.phase_sum.counts, other.phase_sum.modulus,
                        other.value) == want, phi
        pairs += 1
    assert pairs == 1 + 5 + len(extension_fixtures())
    ext, omega_p, theta = z4_boundary_pair()
    with pytest.raises(NotABoundaryPair):
        relative_partition_torus(ext, omega_p, Cochain.zero(ext.quotient, 3, 1), (0, 0))


def test_relative_sectors_report_a_generator_morphism():
    """Past the pair check, an integrand that is not gauge invariant (here
    theta = 0 under the bulk pair's omega' of Z3 x S3 -> S3) raises
    NotGaugeInvariant with (object, k . object, k) for a generator k."""
    z3, s3 = cyclic_group(3), dihedral_group(6)
    ext = direct_product_extension(z3, s3)
    lift = anomaly_report(ext, Cochain.zero(z3, 2)).closed_lift
    beta = random_cochain(s3, 2, 6, random.Random(6))
    omega_p = lift + pullback(ext.lam, beta)
    sectors = gauge_groupoid(s3, 2).objects()
    with pytest.raises(NotGaugeInvariant) as info:
        anomalies._relative_sectors(ext, omega_p, Cochain.zero(s3, 3), sectors)
    (phihat, h), (moved, h_moved), k = info.value.morphism
    assert k in ext.total.generators()
    assert moved == tuple(ext.total.conjugate(k, a) for a in phihat)
    assert h_moved == s3.mul(h, s3.inverses[ext.lam(k)])


def test_relative_partition_input_validation():
    ext, omega_p, theta = z4_boundary_pair()
    with pytest.raises(DegreeMismatch, match="2-tuple .*got length 1"):
        relative_partition_torus(ext, omega_p, theta, (0,))
    with pytest.raises(NotABoundaryPair):
        relative_partition_torus(ext, omega_p, Cochain.zero(ext.quotient, 3, 1), (0, 0))


# --------------------------------------------------------------------------
# projective state cocycles


def test_projective_state_cocycle_split_case():
    d8, z2 = dihedral_group(8), cyclic_group(2)
    ext = direct_product_extension(d8, z2)
    retraction = GroupHom(ext.total, d8, [x % 8 for x in range(16)])
    omega_hat = pullback(retraction, catalog_cocycle("dihedral8_2cocycle", {}))
    zero_theta = Cochain.zero(z2, 3, 1)
    defect, trans, same = projective_state_cocycle(ext, omega_hat, zero_theta)
    assert defect.values == {} and trans.values == {} and same


def test_projective_state_cocycle_anomalous_case():
    ext, omega_p, theta = z4_boundary_pair()
    defect, trans, same = projective_state_cocycle(ext, omega_p, theta)
    assert same
    assert solve_coboundary(defect - trans) is not None


def test_projective_state_fibres_read_on_stabilizer_generators(monkeypatch):
    """Each fibre's basis, read on the kept generators of the kernel's
    stabilizers, is the basis read on the whole stabilizers."""
    d8, z2 = dihedral_group(8), cyclic_group(2)
    split = direct_product_extension(d8, z2)
    retraction = GroupHom(split.total, d8, [x % 8 for x in range(16)])
    omega_hat = pullback(retraction, catalog_cocycle("dihedral8_2cocycle", {}))
    cases = [z4_boundary_pair(), (split, omega_hat, Cochain.zero(z2, 3, 1))]
    flat_basis, read = anomalies.flat_basis, []

    def both(fibre, phase):
        read.append((flat_basis(fibre, phase), reference_flat_basis(fibre, phase)))
        assert aut_generators_generate(fibre)
        return read[-1][0]

    for ext, omega_p, theta in cases:
        want = projective_state_cocycle(ext, omega_p, theta)
        with monkeypatch.context() as patch:
            patch.setattr(anomalies, "flat_basis", both)
            assert projective_state_cocycle(ext, omega_p, theta) == want
    assert all(got == ref for got, ref in read)
    assert [len(got) for got, _ref in read] == [2, 0, 2, 2]  # two sectors each


def test_projective_state_cocycle_transport_direction():
    """An exact twist on a split extension composes without defect.

    Ghat = S3 x Z2 over Z2, with the section sending the generator of Z2 to
    a 3-cycle r times it, so each operator moves a lift to another point of
    its kernel orbit and transports it back along iota(r^{+-1}).
    omega' = delta beta with beta of order 3 on two reflections, theta = 0:
    the relative states are gauge transforms of the untwisted ones, so the
    operators compose exactly.  Transporting back in the wrong direction
    leaves a non-scalar composition defect.
    """
    s3, z2 = dihedral_group(6), cyclic_group(2)
    split = direct_product_extension(s3, z2)
    ghat = split.total
    r = next(x for x in s3.elements() if s3.element_order(x) == 3)
    refl = [x for x in s3.elements() if s3.element_order(x) == 2]
    lift = ghat.mul(split.section[1], split.iota(r))
    ext = Extension(s3, ghat, z2, split.iota, split.lam, (ghat.identity, lift))
    third = PhaseValue(1, 3)
    beta = Cochain(ghat, 1, 3, {(split.iota(refl[1]),): third,
                                (split.iota(refl[2]),): third})
    omega_p = coboundary(beta)
    bundle = transgress_circle(omega_p)
    moved = ghat.conjugate(split.iota(r), split.iota(refl[0]))
    assert bundle.value((moved, split.iota(r))).reduced().modulus == 3
    defect, trans, same = projective_state_cocycle(
        ext, omega_p, Cochain.zero(z2, 3, 1)
    )
    assert defect.values == {} and trans.values == {} and same


def test_projective_state_cocycle_validation():
    ext, omega_p, theta = z4_boundary_pair()
    with pytest.raises(DegreeMismatch):
        projective_state_cocycle(ext, omega_p, theta, k=2)
    zero2 = Cochain.zero(ext.total, 1, 1)
    with pytest.raises(NotABoundaryPair):
        projective_state_cocycle(ext, zero2, Cochain.zero(ext.quotient, 2, 1))


# --------------------------------------------------------------------------
# loop-groupoid coboundary solving


def test_loop_solve_coboundary_finds_primitive():
    ext, omega_p, theta = z4_boundary_pair()
    defect, trans, _ = projective_state_cocycle(ext, omega_p, theta)
    eta = solve_coboundary(trans)
    # the transgressed theta is exact on the loop groupoid of Z2 (H^3(Z2)
    # transgresses to a coboundary there), so a primitive must exist
    assert eta is not None
    assert coboundary(eta) == trans


def test_type_three_transgression_is_not_loop_exact():
    t3 = type_three_cocycle()
    tau = transgress_circle(t3)
    assert solve_coboundary(tau) is None


def solvable_on_all_rows(y):
    """Whether delta x = y is solvable over Q/Z on the full row set (no
    generator restriction): a reference for solve_coboundary's solve on
    generator-led rows.  The engine's answer is checked on every row: a
    solution satisfies each one, a certificate annihilates them all and
    separates y."""
    g, n, loops = y.group, y.degree, y.loops
    den = y.denominator()
    index, index_n = TupleIndex(g, n - 1, loops), TupleIndex(g, n, loops)
    rows = reference_delta_rows(index)
    yvec = cochain_vector(y, index_n, scale_to=den)
    rhs = [yvec[mixed_radix_position(index_n, t)] for t in index.rows()]
    sol, cert = SparseElimination(rows, index.size).solve(rhs, den)
    if sol is not None:
        x, m = sol
        assert all((sum(v * x[c] for c, v in row.items()) * den - b * m)
                   % (m * den) == 0 for row, b in zip(rows, rhs))
        return True
    acc = {}
    for r, v in cert.items():
        for c, a in rows[r].items():
            acc[c] = acc.get(c, 0) + v * a
    assert not any(acc.values())
    assert sum(v * rhs[r] for r, v in cert.items()) % den
    return False


def test_generator_rows_decide_loop_coboundaries():
    ext, omega_p, theta = z4_boundary_pair()
    defect, trans, _ = projective_state_cocycle(ext, omega_p, theta)
    cases = [defect - trans, trans, transgress_circle(type_three_cocycle())]
    rng = random.Random(5)
    for group in (cyclic_group(4), product_group([2, 2]), dihedral_group(6),
                  dihedral_group(8)):
        for gen in cohomology(group, 3).generators:
            tau = transgress_circle(gen)
            beta = random_cochain(group, 1, 4, rng, loops=1)
            cases += [tau, tau + coboundary(beta)]
    assert len(cases) == 19
    verdicts = []
    for y in cases:
        x = solve_coboundary(y)
        assert (x is not None) == solvable_on_all_rows(y)
        if x is not None:
            assert coboundary(x) == y
        verdicts.append(x is not None)
    assert verdicts == [True, True, False] + [True] * 16


# a Q/Z solver whose solution is off by 1/(2m) in every coordinate; the
# boundary-pair self-check must still fire when python -O strips every assert
_WRONG_SOLVER_RUN = """
import sys
import dwkit.anomalies as A
import dwkit.linalg as L
from dwkit.cochains import Cochain
from dwkit.errors import VerificationFailed
from dwkit.groups import cyclic_group, GroupHom

class WrongSolution(L.SparseElimination):
    def solve(self, b, den):
        sol, y = super().solve(b, den)
        if sol is None:
            return sol, y
        return self.solve_pivots(b, den), None

    def solve_pivots(self, b, den):
        x, m = super().solve_pivots(b, den)
        return [2 * v + 1 for v in x], 2 * m

L.SparseElimination = WrongSolution
print(sys.flags.optimize)
z2, z4 = cyclic_group(2), cyclic_group(4)
iota = GroupHom(z2, z4, [0, 2])
lam = GroupHom(z4, z2, [0, 1, 0, 1])
ext = A.Extension(z2, z4, z2, iota, lam, A.find_section(lam))
try:
    A.find_boundary_pair(ext, Cochain.zero(z2, 2, 2))
except VerificationFailed as exc:
    print(exc)
"""


def _run_optimized(code):
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run(
        [sys.executable, "-O", "-c", code],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, check=True, timeout=120,
    )
    return done.stdout.splitlines()


def test_wrong_solver_output_fails_verification_under_optimize():
    assert _run_optimized(_WRONG_SOLVER_RUN) == [
        "1", "solver output must restrict to omega",
    ]


# a Q/Z solver that answers solvable systems with a forged certificate:
# {0: 1} does not annihilate the rows, and {} does not separate b
_FORGED_CERTIFICATE_RUN = """
import sys
import dwkit.anomalies as A
import dwkit.linalg as L
from dwkit.cochains import Cochain, coboundary, solve_coboundary
from dwkit.errors import VerificationFailed
from dwkit.groups import cyclic_group, GroupHom
from dwkit.phase import PhaseValue

z2, z4 = cyclic_group(2), cyclic_group(4)
iota = GroupHom(z2, z4, [0, 2])
lam = GroupHom(z4, z2, [0, 1, 0, 1])
ext = A.Extension(z2, z4, z2, iota, lam, A.find_section(lam))
omega = Cochain.zero(z2, 2, 2)
exact = coboundary(Cochain(z4, 1, 4, {(1,): PhaseValue(1, 4)}))
searches = (
    lambda: A.find_closed_lift(ext, omega),
    lambda: A.find_boundary_pair(ext, omega),
    lambda: solve_coboundary(exact),
)
print(sys.flags.optimize)
print([f() is not None for f in searches])
for forged in ({0: 1}, {}):
    class Forged(L.SparseElimination):
        def solve(self, b, den):
            return None, dict(forged)

        def solve_pivots(self, b, den):
            x, m = super().solve_pivots(b, den)
            return [2 * v + 1 for v in x], 2 * m

    L.SparseElimination = Forged
    for f in searches:
        try:
            f()
        except VerificationFailed as exc:
            print(exc)
        else:
            print("no error")
"""


def test_forged_certificate_fails_verification_under_optimize():
    annihilate = "certificate must annihilate the rows"
    separate = "certificate must separate the right-hand side"
    assert _run_optimized(_FORGED_CERTIFICATE_RUN) == [
        "1", "[True, True, True]",
    ] + [annihilate] * 3 + [separate] * 3


# a primitive off by 1/(2m) in every coordinate: solve_coboundary's own
# check of delta x = y must fire when python -O strips every assert
_WRONG_PRIMITIVE_RUN = """
import sys
import dwkit.linalg as L
from dwkit.cochains import Cochain, coboundary, solve_coboundary
from dwkit.errors import VerificationFailed
from dwkit.groups import cyclic_group
from dwkit.phase import PhaseValue

class WrongSolution(L.SparseElimination):
    def solve(self, b, den):
        sol, y = super().solve(b, den)
        if sol is None:
            return sol, y
        return self.solve_pivots(b, den), None

    def solve_pivots(self, b, den):
        x, m = super().solve_pivots(b, den)
        return [2 * v + 1 for v in x], 2 * m

L.SparseElimination = WrongSolution
print(sys.flags.optimize)
z4 = cyclic_group(4)
try:
    solve_coboundary(coboundary(Cochain(z4, 1, 4, {(1,): PhaseValue(1, 4)})))
except VerificationFailed as exc:
    print(exc)
"""


def test_wrong_primitive_fails_verification_under_optimize():
    assert _run_optimized(_WRONG_PRIMITIVE_RUN) == [
        "1", "solver output must have coboundary y",
    ]


# the four searches warm the memo of eliminated systems, then the engine's
# solve_pivots and solve are replaced on the class itself, so every later
# call is a memo hit that must still go through the forged engine and fail
# its checks (a wrong candidate from the pivot rows sends it on to solve); the
# first obstruction of the Z2^2 in Z4^2 doubling has no solution, so a
# wrong solution cannot reach it, but a forged certificate must fail
_WARM_MEMO_FORGERY_RUN = """
import sys
import dwkit.anomalies as A
import dwkit.linalg as L
from dwkit.cochains import Cochain, catalog_cocycle, coboundary, solve_coboundary
from dwkit.errors import VerificationFailed
from dwkit.groups import (
    GroupHom, cyclic_group, product_digits, product_group, product_index,
)
from dwkit.phase import PhaseValue

z2, z4 = cyclic_group(2), cyclic_group(4)
iota = GroupHom(z2, z4, [0, 2])
lam = GroupHom(z4, z2, [0, 1, 0, 1])
ext = A.Extension(z2, z4, z2, iota, lam, A.find_section(lam))
omega = Cochain.zero(z2, 2, 2)
exact = coboundary(Cochain(z4, 1, 4, {(1,): PhaseValue(1, 4)}))
k4, z4sq = product_group([2, 2]), product_group([4, 4])
double = GroupHom(k4, z4sq, [
    product_index([4, 4], [2 * a for a in product_digits([2, 2], x)])
    for x in k4.elements()])
halve = GroupHom(z4sq, k4, [
    product_index([2, 2], [a % 2 for a in product_digits([4, 4], x)])
    for x in z4sq.elements()])
doubling = A.Extension(k4, z4sq, k4, double, halve, A.find_section(halve))
w1 = catalog_cocycle("product_2cocycle", {"N": 2, "k": 1})
_ok, phis = A.is_invariant_class(doubling, w1)
searches = (
    lambda: A.find_closed_lift(ext, omega),
    lambda: A.find_boundary_pair(ext, omega),
    lambda: solve_coboundary(exact),
    lambda: A.is_first_obstruction_trivial(doubling, w1, phis)[1],
)
print(sys.flags.optimize)
print([f() is not None for f in searches])
print(tuple(L.solve_qz_checked.cache_info()[:2]))
honest, honest_pivots = L.SparseElimination.solve, L.SparseElimination.solve_pivots

def wrong_pivots(self, b, den):
    x, m = honest_pivots(self, b, den)
    return [2 * v + 1 for v in x], 2 * m

def wrong(self, b, den):
    sol, y = honest(self, b, den)
    if sol is None:
        return sol, y
    return wrong_pivots(self, b, den), None

forgeries = (
    lambda self, b, den: (None, {0: 1}),
    lambda self, b, den: (None, {}),
    wrong,
)
L.SparseElimination.solve_pivots = wrong_pivots
for forged in forgeries:
    L.SparseElimination.solve = forged
    for f in searches:
        try:
            f()
        except VerificationFailed as exc:
            print(exc)
        else:
            print("no error")
print(tuple(L.solve_qz_checked.cache_info()[:2]))
"""


def test_forged_engine_fails_verification_on_memo_hits_under_optimize():
    out = _run_optimized(_WARM_MEMO_FORGERY_RUN)
    assert out[:3] == ["1", "[True, True, True, False]", "(0, 4)"]
    assert out[3:7] == ["certificate must annihilate the rows"] * 4
    assert out[7:11] == ["certificate must separate the right-hand side"] * 4
    assert out[11:] == [
        "solver output must be closed",
        "solver output must restrict to omega",
        "solver output must have coboundary y",
        "no error",
        "(12, 4)",
    ]


# a Q/Z solver whose solution is off by 1/(4m) in its last coordinate,
# which lies in the b-block of the last pair (the c_g stay closed, and on
# Z2 the shift moves delta b by 1/(2m)); the first-obstruction search must
# re-verify its corrected family when python -O strips every assert (Phi
# is found with the honest engine)
_WRONG_CORRECTION_RUN = """
import sys
import dwkit.anomalies as A
import dwkit.linalg as L
from dwkit.cochains import catalog_cocycle
from dwkit.errors import VerificationFailed
from dwkit.groups import cyclic_group, GroupHom

class WrongSolution(L.SparseElimination):
    def solve(self, b, den):
        sol, y = super().solve(b, den)
        if sol is None:
            return sol, y
        return self.solve_pivots(b, den), None

    def solve_pivots(self, b, den):
        x, m = super().solve_pivots(b, den)
        return [4 * v for v in x[:-1]] + [4 * x[-1] + 1], 4 * m

print(sys.flags.optimize)
z2, z4 = cyclic_group(2), cyclic_group(4)
iota = GroupHom(z2, z4, [0, 2])
lam = GroupHom(z4, z2, [0, 1, 0, 1])
ext = A.Extension(z2, z4, z2, iota, lam, A.find_section(lam))
omega = catalog_cocycle("cyclic_3cocycle", {"N": 2, "k": 1})
_ok, phis = A.is_invariant_class(ext, omega)
print(A.is_first_obstruction_trivial(ext, omega, phis)[0])
L.SparseElimination = WrongSolution
try:
    print(A.is_first_obstruction_trivial(ext, omega, phis)[0])
except VerificationFailed as exc:
    print(exc)
"""


def test_wrong_first_obstruction_correction_fails_verification_under_optimize():
    assert _run_optimized(_WRONG_CORRECTION_RUN) == [
        "1", "True", "corrected obstruction must be delta b",
    ]
