"""Truncated valuation rings and their morphisms, modeled over k[pi]/(pi^e).

An object is the triple (A, M, eps) with A = k[pi]/(pi^e), M the free
rank-1 module on a generator mu, and eps(mu) = pi.  This char-p model is
valid exactly when e does not exceed the absolute ramification index,
which holds for every tame base used by this toolkit; mixed-characteristic
Artin rings are deliberately out of scope.

A morphism is encoded by (r, res_twist, eta_coeff): the ring map sends the
residue field through the res_twist-th Frobenius power and pi to
eta_coeff * pi^r, and the module map sends mu_1 to eta_coeff * mu_2^(x r).
The compatibility law mu o eps_1 = eps_2^(x r) o eta then holds by
construction; a caller-supplied mu_image is checked against it.
"""

from __future__ import annotations

from dataclasses import dataclass

from ._convolve import compose_mod, power
from .gfseries import FiniteField, TruncSeries, _from_packed


@dataclass(frozen=True)
class TruncObject:
    field: FiniteField
    e: int

    def __post_init__(self):
        if self.e < 1:
            raise ValueError("length e must be >= 1")
        if self.field.prec > 1:
            raise ValueError(f"k[pi]/(pi^e) needs a residue field, not the ring {self.field!r}")

    def element(self, coeffs):
        """An element of A = k[pi]/(pi^e) as a series truncated at e."""
        coeffs = list(coeffs)[: self.e]
        coeffs += [0] * (self.e - len(coeffs))
        return TruncSeries(self.field, coeffs, self.e)

    def pi(self):
        if self.e == 1:
            return self.element([0])
        return self.element([0, 1])

    def one(self):
        return self.element([1])


class TruncMorphism:
    """A category morphism (r, mu, eta) between two TruncObjects."""

    __slots__ = ("source", "target", "r", "res_twist", "eta_coeff", "mu_image")

    def __init__(self, source, target, r, res_twist, eta_coeff, mu_image=None):
        if source.field != target.field:
            raise ValueError("objects must share a residue field in this model")
        if r < 1:
            raise ValueError("r must be a positive integer")
        eta_coeff = target.element(eta_coeff.coeffs if isinstance(eta_coeff, TruncSeries) else eta_coeff)
        if not any(eta_coeff.block(0)):
            raise ValueError("eta coefficient must be a unit of the target ring")
        derived = eta_coeff.shift(r, target.e)  # eta_coeff * pi^r in A_2
        if mu_image is None:
            mu_image = derived
        else:
            mu_image = target.element(
                mu_image.coeffs if isinstance(mu_image, TruncSeries) else mu_image
            )
            if mu_image != derived:
                raise ValueError("mu(pi) must equal eta_coeff * pi^r (compatibility law)")
        # the ring map must kill pi^{e1}: equivalent to r*e1 >= e2
        if r * source.e < target.e:
            raise ValueError(
                f"no ring map exists: r*e1 = {r * source.e} < e2 = {target.e}"
            )
        self.source = source
        self.target = target
        self.r = r
        self.res_twist = res_twist % source.field.w
        self.eta_coeff = eta_coeff
        self.mu_image = mu_image

    def apply_ring(self, a):
        """Image of a in A_1 = k[pi]/(pi^e1) under the ring map mu.

        a = sum c_k pi^k goes to sum Frob(c_k) mu(pi)^k: the Frobenius-twisted
        series composed with mu(pi), whose constant term is zero (r >= 1),
        as one kernel composition at the target length; the kernel picks its
        method by the shorter of the two lengths.
        """
        if a.field != self.source.field or a.trunc != self.source.e:
            raise ValueError("element does not belong to the source ring")
        f, e = self.target.field, self.target.e
        twisted = a.frobenius_twist(self.res_twist)
        return _from_packed(f, compose_mod(twisted.packed, self.mu_image.packed, e, f.mod, f.modulus), e)

    def __eq__(self, other):
        return (
            isinstance(other, TruncMorphism)
            and other.source == self.source
            and other.target == self.target
            and other.r == self.r
            and other.res_twist == self.res_twist
            and other.eta_coeff == self.eta_coeff
        )

    def __hash__(self):
        return hash((self.source, self.target, self.r, self.res_twist, self.eta_coeff))

    def __repr__(self):
        return (
            f"TruncMorphism(r={self.r}, twist={self.res_twist}, "
            f"{self.source.e} -> {self.target.e} over {self.source.field!r})"
        )


def compose_morphism(g, f):
    """g o f = (s*r, nu o mu, theta^(x r) o eta); endpoints must match."""
    if f.target != g.source:
        raise ValueError("target of f must equal source of g")
    eta_out = g.apply_ring(f.eta_coeff) * power(g.eta_coeff, f.r, TruncSeries.__mul__)
    out = TruncMorphism(
        f.source, g.target, g.r * f.r, g.res_twist + f.res_twist, eta_out
    )
    # revalidate against direct substitution; a mismatch means corrupted input
    if out.mu_image != g.apply_ring(f.mu_image):
        raise ValueError("composite fails mu-substitution check: corrupted morphism data")
    return out


def is_extension(f):
    """True iff length(A_2) = r * length(A_1)."""
    return f.target.e == f.r * f.source.e


def r_equivalent(f, f2, c):
    """R(c)-equivalence: same r, same residue map, eta values within m^(rc).

    The difference of the eta images of the module generator must lie in
    m^(rc) M_2^(x r), i.e. the eta coefficients agree to pi-adic valuation
    at least r*c.
    """
    if f.source != f2.source or f.target != f2.target:
        raise ValueError("morphisms must share source and target")
    if c < 1:
        raise ValueError("c must be a positive integer")
    if f.r != f2.r or f.res_twist != f2.res_twist:
        return False
    # pi-adic valuation of the difference; None for the zero class
    v = (f.eta_coeff - f2.eta_coeff).valuation()
    if v is None:
        return True
    return v >= f.r * c


def is_isomorphism(f):
    """True iff r = 1, mu is an isomorphism, and eta is an isomorphism."""
    if f.r != 1 or f.source.e != f.target.e:
        return False
    # for e >= 2 the uniformizer must map to an exact uniformizer; for
    # e = 1 the ring is the residue field and mu is already bijective
    if f.target.e > 1 and f.mu_image.valuation() != 1:
        return False
    return any(f.eta_coeff.block(0))
