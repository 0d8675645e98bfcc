"""The contract of the three sparse maps on W (Hecke elements, twisted group
ring elements and fixed-point classes), and what each prints."""

import hashlib

import pytest

from klschubert.hecke import HeckeAlgebra, HeckeElt
from klschubert.laurent import LaurentPoly
from klschubert.localization import CohClass, Localization
from klschubert.modp import ExactDomain, OrbitDomain
from klschubert.rootsystem import CartanData, RootSystem
from klschubert.twisted import QWElt, TwistedRing

from oracles import kl_tilde_basis


def _hecke_rings(system, mode):
    """(ring, other rings): a twin algebra of the same group, another group."""
    other = RootSystem(CartanData.type_a(2))
    return HeckeAlgebra(system), [HeckeAlgebra(system), HeckeAlgebra(other)]


def _twisted_rings(system, mode):
    """(ring, other rings): a twin of the same realization over an equal
    ExactDomain or the same OrbitDomain, another realization, another group,
    another evaluation domain."""
    dom = ExactDomain(system) if mode == "exact" else OrbitDomain(system, seed=3)
    twin = ExactDomain(system) if mode == "exact" else dom
    other = RootSystem(CartanData.type_a(2))
    return (
        TwistedRing(system, "multiplicative", dom),
        [
            TwistedRing(system, "multiplicative", twin),
            TwistedRing(system, "hyperbolic", dom),
            TwistedRing(other, "multiplicative", ExactDomain(other)),
            TwistedRing(system, "multiplicative", OrbitDomain(system, seed=4)),
        ],
    )


def _lift(ring, n: int):
    """The int n as a coefficient of ring's maps."""
    return LaurentPoly.const(1, n) if isinstance(ring, HeckeAlgebra) else ring.as_scalar(n)


MAPS = [
    (HeckeElt, _hecke_rings, "exact"),
    (QWElt, _twisted_rings, "exact"),
    (QWElt, _twisted_rings, "modp"),
    (CohClass, _twisted_rings, "exact"),
    (CohClass, _twisted_rings, "modp"),
]


@pytest.mark.parametrize(
    "cls, rings, mode", MAPS, ids=[f"{cls.__name__}-{mode}" for cls, _, mode in MAPS]
)
def test_the_sparse_map_contract(a2, cls, rings, mode):
    """Zeros are dropped, a + (-1) a is empty, scale by 1 changes nothing; two
    maps over one ring add and compare, and over any other ring object, even
    an equal twin, they are unequal and + raises."""

    def build(ring):
        e, middle, w0 = ring.system.identity, ring.system.elements[1], ring.system.w0
        return cls(ring, {e: _lift(ring, 2), middle: _lift(ring, 0), w0: _lift(ring, 1)})

    ring, strangers = rings(a2, mode)
    a = build(ring)
    assert a.support() == [a2.identity, a2.w0]
    zero = a + a.scale(_lift(ring, -1))
    assert zero.coeffs == {} and zero.format() == "0"
    assert a.scale(_lift(ring, 1)) == a and a.scale(_lift(ring, 0)).coeffs == {}
    b = build(ring)
    assert a == b and a + b == a.scale(_lift(ring, 2))
    for other in strangers:
        c = build(other)
        assert a != c and not a == c
        with pytest.raises(ValueError):
            a + c


@pytest.mark.parametrize("mode", ["exact", "modp"])
def test_maps_of_another_type_do_not_mix(a2, mode):
    """A QWElt and a CohClass share a TwistedRing, yet neither adds to the
    other; no map adds an int."""
    loc = Localization(a2, ExactDomain(a2) if mode == "exact" else OrbitDomain(a2, seed=3))
    e = a2.identity
    q, c, h = loc.mult.delta(e), loc.point_class(e), loc.hecke.tau(e)
    assert q.ring is c.ring
    for left, right in ((q, c), (c, q), (q, 1), (c, 1), (h, 1), (h, q)):
        with pytest.raises(TypeError):
            left + right


# sha256 of kl_basis(w).format() and kl_tilde_basis(w).format() over every w of A3
BASES = {"kl_basis": HeckeAlgebra.kl_basis, "kl_tilde_basis": kl_tilde_basis}
KL_BASIS_DIGESTS = {
    "kl_basis": "ca1229cee98fc6fdb388bf72dfc2b57825a9e57a6b8fd298090dad287c2d4cdf",
    "kl_tilde_basis": "eebf9eb6b3d776f6a34439e5cea3bd024cc20e0b5cd1202d15f56dcd820810a3",
}


@pytest.mark.parametrize("basis", sorted(KL_BASIS_DIGESTS))
def test_printed_kl_bases_are_pinned(a3, basis):
    h = HeckeAlgebra(a3)
    digest = hashlib.sha256()
    for w in a3.elements:
        digest.update(f"{w!r}: {BASES[basis](h, w).format()}\n".encode())
    assert digest.hexdigest() == KL_BASIS_DIGESTS[basis]


def test_mod_p_maps_print_the_first_residue_of_each_coefficient(a2):
    loc = Localization(a2, OrbitDomain(a2, 12345, 2))
    assert repr(loc.mc_cell(a2.w0)) == (
        "CohClass<multiplicative>(e: OrbitScalar(3636764845857943351, ...); "
        "[2,1,3]: OrbitScalar(2185656907522066227, ...); "
        "[1,3,2]: OrbitScalar(3173278135322107797, ...); "
        "[2,3,1]: OrbitScalar(3015515236156027485, ...); "
        "[3,1,2]: OrbitScalar(4397787909818594876, ...); "
        "[3,2,1]: OrbitScalar(122612043503401873, ...))"
    )
    assert repr(loc.mult.dl_generator(0)) == (
        "QWElt<multiplicative>((OrbitScalar(1924248715429669089, ...)) d[e] + "
        "(OrbitScalar(2274863721085444445, ...)) d[[2,1,3]])"
    )
    assert repr(loc.hyp.dl_generator(1)) == (
        "QWElt<hyperbolic>((OrbitScalar(569303002460004075, ...)) d[e] + "
        "(OrbitScalar(3629809434055109459, ...)) d[[1,3,2]])"
    )
