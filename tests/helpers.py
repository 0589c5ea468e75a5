"""Independent brute-force oracles and randomized data generators.

Everything here deliberately avoids the library's own algorithms: series
composition is done by ascending-power polynomial expansion, substitution
inverses by exhaustive coefficient search, quotient division over exact
rationals, and quotient groups by full enumeration.
"""

import math
from fractions import Fraction


# -- dense polynomial arithmetic mod (p, X^n), ascending powers --------------


def poly_mul_mod(a, b, p, n):
    out = [0] * n
    for i, ai in enumerate(a[:n]):
        if ai % p == 0:
            continue
        for j in range(min(len(b), n - i)):
            out[i + j] = (out[i + j] + ai * b[j]) % p
    return out


def brute_compose(outer, inner, p, n):
    """outer(inner) mod (p, X^n) by summing c_k * inner^k, k ascending."""
    result = [0] * n
    power = [1] + [0] * (n - 1)
    for c in outer[:n]:
        if c % p:
            for idx in range(n):
                result[idx] = (result[idx] + c * power[idx]) % p
        power = poly_mul_mod(power, inner, p, n)
    return result


def ext_compose(outer, inner, p, modulus, n):
    """outer(inner) mod X^n over F_p[Y]/(modulus), coefficients as w-tuples.

    Ascending powers as in brute_compose; a coefficient product is a
    schoolbook product in Y followed by long division by the monic modulus.
    """
    w = len(modulus) - 1

    def cmul(a, b):
        prod = poly_mul_mod(list(a), list(b), p, 2 * w - 1)
        for d in range(2 * w - 2, w - 1, -1):
            t = prod[d]
            for j in range(w + 1):
                prod[d - w + j] = (prod[d - w + j] - t * modulus[j]) % p
        return tuple(prod[:w])

    def cadd(a, b):
        return tuple((x + y) % p for x, y in zip(a, b))

    zero = (0,) * w
    result = [zero] * n
    power = [(1,) + zero[1:]] + [zero] * (n - 1)
    for c in outer[:n]:
        result = [cadd(r, cmul(c, pc)) for r, pc in zip(result, power)]
        new = [zero] * n
        for i, pi in enumerate(power):
            for j in range(min(len(inner), n - i)):
                new[i + j] = cadd(new[i + j], cmul(pi, inner[j]))
        power = new
    return result


def brute_comp_inverse(g, p, n):
    """Solve g(h) = X coefficient by exhaustive search over each digit."""
    inv1 = pow(g[1], p - 2, p)
    h = [0, inv1] + [0] * (n - 2)
    for k in range(2, n):
        for b in range(p):
            h[k] = b
            if brute_compose(g, h, p, k + 1)[k] == 0:
                break
        else:
            raise AssertionError("no digit works; input not invertible")
    return h


def brute_depth(g, p, n):
    series = brute_compose([0, 1], g, p, n)  # normalize representation
    if series[1] % p != 1 % p:
        return 0
    for k in range(2, n):
        if series[k] % p:
            return k - 1
    return None


def enumerate_subgroup(gen, p, m):
    """All elements of <image of gen> in the quotient mod X^(m+1), as tuples."""
    ident = tuple([0, 1] + [0] * (m - 1))
    gen = tuple(gen[: m + 1])
    seen = {ident}
    cur = gen
    while cur not in seen:
        seen.add(cur)
        cur = tuple(brute_compose(list(cur), list(gen), p, m + 1))
    return seen


def exact_int_compose(outer, inner, n):
    """outer(inner) over Z truncated at X^n, ascending powers, no reduction."""
    result = [0] * n
    power = [1] + [0] * (n - 1)
    for c in outer[:n]:
        if c:
            for idx in range(n):
                result[idx] += c * power[idx]
        new = [0] * n
        for i, pi in enumerate(power):
            if pi:
                for j in range(1, min(len(inner), n - i)):
                    new[i + j] += pi * inner[j]
        power = new
    return result


def apply_ring_by_powers(f, a):
    """Image of a under the ring map of morphism f, power by power.

    sum_k Frob(c_k) * mu(pi)^k in k[pi]/(pi^e2), with one field-element
    product per coefficient and a schoolbook product for each next power
    of mu(pi); no series kernel is used.
    """
    from ramforge import TruncSeries

    field, e = f.target.field, f.target.e
    zero = field.zero()
    mu = f.mu_image.coeffs
    acc = [zero] * e
    power = [field.one()] + [zero] * (e - 1)
    for c in a.coeffs:
        ct = c.frobenius(f.res_twist)
        acc = [x + ct * y for x, y in zip(acc, power)]
        power = [sum((power[i] * mu[k - i] for i in range(k + 1)), zero) for k in range(e)]
    return TruncSeries(field, acc, e)


# -- exact rational power-series division -------------------------------------


def exact_series_divide(num, den, n):
    """num/den over Q[[X]] to n terms; den[0] must be nonzero."""
    num = [Fraction(c) for c in num]
    den = [Fraction(c) for c in den]
    q = []
    for k in range(n):
        s = num[k] if k < len(num) else Fraction(0)
        for j in range(1, min(k, len(den) - 1) + 1):
            s -= den[j] * q[k - j]
        q.append(s / den[0])
    return q


def frac_mod(fr, p, k):
    """Residue of a p-integral rational modulo p^k."""
    mod = p**k
    den = fr.denominator
    assert den % p != 0
    return fr.numerator * pow(den, -1, mod) % mod


def vp_frac(fr, p):
    if fr == 0:
        return None
    v = 0
    num, den = fr.numerator, fr.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


# -- randomized admissible break data -----------------------------------------


def random_break_data(rng, p=None, e=None, n=None, primes=(5, 7, 11, 13), n_max=5):
    """Integer upper-break sequences satisfying the admissibility rules."""
    from ramforge import BreakData

    p = p if p is not None else rng.choice(primes)
    e = e if e is not None else rng.randint(1, p - 1)
    n = n if n is not None else rng.randint(1, n_max)
    ceiling = Fraction(p * e, p - 1)
    threshold = Fraction(e, p - 1)
    b = rng.randint(1, int(ceiling))
    upper = [b]
    while len(upper) < n:
        if Fraction(b) >= threshold:
            b = b + e
        else:
            lo, hi = p * b, int(ceiling)
            b = rng.randint(lo, hi)
        upper.append(b)
    return BreakData(p, e, tuple(upper))


def random_nottingham(rng, field, trunc, depth_one=False):
    """A random substitution-group element X + c_2 X^2 + ...."""
    from ramforge import TruncSeries

    coeffs = [0, 1] + [rng.randrange(field.p) for _ in range(trunc - 2)]
    if depth_one and trunc > 2:
        coeffs[2] = rng.randrange(1, field.p)
    return TruncSeries(field, coeffs, trunc)


# -- the cyclotomic family ---------------------------------------------------


def cyclotomic_coeffs(p, trunc):
    """(1+X)^(p+1) - 1 mod X^trunc, whose reduction X + X^p + X^(p+1) mod p
    has depths p^(n+1) - 1."""
    return [math.comb(p + 1, k) if 1 <= k <= p + 1 else 0 for k in range(trunc)]


def cyclotomic_reduction(p, trunc):
    """The cyclotomic series over F_p."""
    from ramforge import FiniteField, TruncSeries

    return TruncSeries(FiniteField(p), cyclotomic_coeffs(p, trunc), trunc)


def cyclotomic_padic(p, prec, trunc):
    """The cyclotomic series mod (p^prec, X^trunc)."""
    from ramforge import PadicSeries

    return PadicSeries(p, prec, trunc, cyclotomic_coeffs(p, trunc))
