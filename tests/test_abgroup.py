import random

import pytest

from wittlab.abgroup import (
    GroupMap,
    PresentedAbGroup,
    exact_at,
    subgroup_presentation,
)
from wittlab.errors import ParameterMismatch
from wittlab.intlinalg import IntMatrix

rng = random.Random(6021023)


def test_from_moduli():
    g = PresentedAbGroup.from_moduli([2, 4, 3])
    assert g.invariant_factors == (2, 12)
    assert g.order() == 24
    assert not g.is_trivial()
    assert PresentedAbGroup.from_moduli([1, 1]).is_trivial()
    assert PresentedAbGroup.free(2).order() is None
    assert PresentedAbGroup.free(0).is_trivial()


def test_membership_and_canonical():
    g = PresentedAbGroup.from_moduli([4, 6])
    assert g.is_zero([4, 0])
    assert g.is_zero([0, 6])
    assert not g.is_zero([2, 3])
    assert g.equal([1, 7], [5, 1])
    for trial in range(50):
        v = [rng.randint(-20, 20), rng.randint(-20, 20)]
        c = g.canonical(v)
        assert g.equal(v, c)
        assert c == g.canonical(c)


def test_elements_enumeration():
    g = PresentedAbGroup.from_moduli([2, 3])
    els = list(g.elements())
    assert len(els) == 6
    assert len({tuple(g.canonical(e)) for e in els}) == 6


def test_quotient():
    g = PresentedAbGroup.from_moduli([8])
    q = g.quotient([{0: 4}])
    assert q.invariant_factors == (4,)
    q2 = g.quotient([{0: 1}])
    assert q2.is_trivial()


def test_group_map_respects_relations():
    a = PresentedAbGroup.from_moduli([2])
    b = PresentedAbGroup.from_moduli([4])
    # doubling sends the relation 2 to 4, fine
    GroupMap(a, b, IntMatrix([[2]]))
    # the "identity" does not: 2 is not 0 mod 4
    with pytest.raises(ParameterMismatch):
        GroupMap(a, b, IntMatrix([[1]]))


# Z^2 modulo (2, 2) and (0, 4): not diagonal, so kept in Hermite form
HNF_GROUP = PresentedAbGroup(2, [{0: 2, 1: 2}, {1: 4}])


@pytest.mark.parametrize("src, dst, good, bad", [
    # diagonal -> diagonal: Z/2 -> Z/4
    (PresentedAbGroup.from_moduli([2]), PresentedAbGroup.from_moduli([4]),
     [[2]], [[1]]),
    # diagonal -> Hermite: (1, 1) has order 2, (1, 0) has order 4
    (PresentedAbGroup.from_moduli([2]), HNF_GROUP, [[1], [1]], [[1], [0]]),
    # Hermite -> diagonal: (2, 2) must die in Z/4
    (HNF_GROUP, PresentedAbGroup.from_moduli([4]), [[2, 0]], [[1, 0]]),
    # Hermite -> diagonal, where only the second relation (0, 3) fails
    (PresentedAbGroup(2, [{0: 2, 1: 2}, {1: 3}]), PresentedAbGroup.from_moduli([2]),
     [[1, 0]], [[0, 1]]),
    # Hermite -> Hermite: the projection to the first coordinate
    (HNF_GROUP, HNF_GROUP, [[1, 0], [0, 1]], [[1, 0], [0, 0]]),
])
def test_group_map_relation_check(src, dst, good, bad):
    assert HNF_GROUP._diag is None
    GroupMap(src, dst, IntMatrix(good))
    with pytest.raises(ParameterMismatch):
        GroupMap(src, dst, IntMatrix(bad))


@pytest.mark.parametrize("g", [PresentedAbGroup.from_moduli([2, 3]), HNF_GROUP])
def test_maps_to_and_from_the_zero_generator_group(g):
    empty = PresentedAbGroup(0, [])
    out = GroupMap.zero(g, empty)
    assert (out.matrix.m, out.matrix.n) == (0, g.num_gens)
    assert out.kernel_group().order() == g.order()
    assert out.is_surjective()
    into = GroupMap.zero(empty, g)
    assert (into.matrix.m, into.matrix.n) == (g.num_gens, 0)
    assert into.kernel_group().order() == 1
    assert into.cokernel().order() == g.order()


def test_group_map_algebra():
    g = PresentedAbGroup.from_moduli([4, 4])
    f = GroupMap(g, g, IntMatrix([[0, 1], [1, 0]]))
    assert f.compose(f) == GroupMap.identity(g)
    assert (f - f) == GroupMap.zero(g, g)
    assert tuple(f.scaled(2).apply([1, 1])) == (2, 2)
    assert f.is_isomorphism()


def test_map_arithmetic_checks_the_groups():
    z2 = PresentedAbGroup.from_moduli([2])
    z4 = PresentedAbGroup.from_moduli([4])
    # Z/2 -> Z/4 via "identities" would send 2 (zero in Z/2) to 2
    with pytest.raises(ParameterMismatch):
        GroupMap.identity(z4).compose(GroupMap.identity(z2))
    with pytest.raises(ParameterMismatch):
        GroupMap.identity(z2) + GroupMap(z4, z4, IntMatrix([[1]]))
    with pytest.raises(ParameterMismatch):
        GroupMap.identity(z2) - GroupMap(z4, z4, IntMatrix([[1]]))
    # equal presentations built apart agree, diagonal or Hermite
    id4 = GroupMap.identity(z4)
    also_id4 = GroupMap.identity(PresentedAbGroup(1, [{0: 8}, {0: 12}]))
    assert id4.compose(also_id4).apply([5]) == (1,)
    assert id4 + also_id4 == id4.scaled(2)
    other_hnf = PresentedAbGroup(2, [{0: 2, 1: 6}, {1: 4}, {0: 4}])
    assert other_hnf is not HNF_GROUP and other_hnf._diag is None
    assert (GroupMap.identity(HNF_GROUP) - GroupMap.identity(other_hnf)) == (
        GroupMap.zero(HNF_GROUP, HNF_GROUP))


def test_map_equality_checks_the_groups():
    z2 = PresentedAbGroup.from_moduli([2])
    z4 = PresentedAbGroup.from_moduli([4])
    assert GroupMap.identity(z2) != GroupMap.identity(z4)
    assert GroupMap.identity(z4) != GroupMap.identity(z2)
    # the same matrix column, zero modulo 2 but not modulo 4
    into_z2 = GroupMap.zero(z2, z2)
    into_z4 = GroupMap(z2, z4, IntMatrix([[2]]))
    assert into_z2 != into_z4
    assert into_z4 != into_z2
    # equal presentations built apart still compare equal
    assert GroupMap.identity(z2) == GroupMap.identity(PresentedAbGroup(1, [{0: 2}]))


def test_kernel_image_cokernel():
    # multiplication by 2 on Z/8: kernel Z/2, image Z/4, cokernel Z/2
    g = PresentedAbGroup.from_moduli([8])
    two = GroupMap(g, g, IntMatrix([[2]]))
    assert two.kernel_group().invariant_factors == (2,)
    assert subgroup_presentation(two.image_cols(), g).invariant_factors == (4,)
    assert two.cokernel().invariant_factors == (2,)
    assert not two.is_injective()
    assert not two.is_surjective()


def test_exactness():
    # 0 -> Z/2 -> Z/4 -> Z/2 -> 0 with inclusion then projection
    a = PresentedAbGroup.from_moduli([2])
    b = PresentedAbGroup.from_moduli([4])
    c = PresentedAbGroup.from_moduli([2])
    incl = GroupMap(a, b, IntMatrix([[2]]))
    proj = GroupMap(b, c, IntMatrix([[1]]))
    assert incl.is_injective()
    assert proj.is_surjective()
    assert exact_at(incl, proj)
    # replacing the inclusion by zero breaks exactness in the middle
    assert not exact_at(GroupMap.zero(a, b), proj)


def test_subgroup_presentation_random():
    for trial in range(25):
        moduli = [rng.choice([2, 3, 4, 8, 9]) for _ in range(rng.randint(1, 3))]
        g = PresentedAbGroup.from_moduli(moduli)
        n = len(moduli)
        gens = [{i: rng.randint(-5, 5) for i in range(n)}
                for _ in range(rng.randint(1, 3))]
        h = subgroup_presentation(gens, g)
        assert g.order() % h.order() == 0
