"""Independent brute-force oracles and randomized data generators.

Everything here deliberately avoids the library's own algorithms: series
composition is done by ascending-power polynomial expansion, substitution
inverses by exhaustive coefficient search, quotient division and Newton
polygons over exact rationals, quotient groups by full enumeration,
extension-field arithmetic by schoolbook products in Y with long division
by the modulus, powers by repeated products, piecewise-linear functions by
walking their segments from 0, the shift function's window sum t by t and
its value from t0 itself, m0 by scanning, the condition-1 bound as its
literal sum and its closed form over Fractions, the iterates of the
multiplicative formal group by binomial coefficients, and the report
writers key by key.
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


# -- arithmetic in F_p[Y]/(modulus), elements as w-tuples ---------------------
#
# The modulus is monic, low degree first; the prime field F_p is
# F_p[Y]/(Y), modulus (0, 1).


def cadd(a, b, p):
    return tuple((x + y) % p for x, y in zip(a, b))


def cmul(a, b, p, modulus):
    """a*b: a schoolbook product in Y, then long division by the modulus."""
    w = len(modulus) - 1
    prod = poly_mul_mod(list(a), list(b), p, 2 * w - 1)
    for d in range(2 * w - 2, w - 1, -1):
        t = prod[d]
        for j in range(w + 1):
            prod[d - w + j] = (prod[d - w + j] - t * modulus[j]) % p
    return tuple(prod[:w])


def cpow(a, e, p, modulus):
    """a^e for e >= 0, as e repeated products."""
    out = (1,) + (0,) * (len(modulus) - 2)
    for _ in range(e):
        out = cmul(out, a, p, modulus)
    return out


def cfrob(a, j, p, modulus):
    """The Frobenius power a -> a^(p^(j mod w)); negative j inverts it."""
    return cpow(a, p ** (j % (len(modulus) - 1)), p, modulus)


def ext_compose(outer, inner, p, modulus, n):
    """outer(inner) mod X^n over F_p[Y]/(modulus), coefficients as w-tuples.

    Ascending powers as in brute_compose, with cmul and cadd.
    """
    zero = (0,) * (len(modulus) - 1)
    result = [zero] * n
    power = [(1,) + zero[1:]] + [zero] * (n - 1)
    for c in outer[:n]:
        result = [cadd(r, cmul(c, pc, p, modulus), p) for r, pc in zip(result, power)]
        new = [zero] * n
        for i, pi in enumerate(power):
            for j in range(min(len(inner), n - i)):
                new[i + j] = cadd(new[i + j], cmul(pi, inner[j], p, modulus), p)
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

    sum_k Frob(c_k) * mu(pi)^k in k[pi]/(pi^e2), with one cmul per
    coefficient and a schoolbook product for each next power of mu(pi);
    no arithmetic of the library is used.
    """
    from ramforge import TruncSeries

    field, e = f.target.field, f.target.e
    p, modulus = field.p, field.modulus or (0, 1)
    zero = (0,) * field.w
    mu = [c.rep for c in f.mu_image.coeffs]
    acc = [zero] * e
    power = [(1,) + zero[1:]] + [zero] * (e - 1)
    for c in a.coeffs:
        ct = cfrob(c.rep, f.res_twist, p, modulus)
        acc = [cadd(x, cmul(ct, y, p, modulus), p) for x, y in zip(acc, power)]
        new = [zero] * e
        for k in range(e):
            for i in range(k + 1):
                new[k] = cadd(new[k], cmul(power[i], mu[k - i], p, modulus), p)
        power = new
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


# -- Newton polygons over exact rationals -------------------------------------


def fraction_newton_polygon(p, coeffs, coeff_prec, degree):
    """(vertices, segments) of the Newton polygon of coeffs[:degree + 1],
    each coefficient certified to coeff_prec digits.

    The lower hull of the certified points is built in Fractions, each
    point with no certified nonzero digit is compared against the value of
    the hull at its abscissa, found by a scan over the segments, and
    segments are (slope, length) pairs.  Raises PrecisionError as
    ``newton_polygon`` does, with the same message and level.
    """
    from ramforge import PrecisionError

    exact = []
    bounded = []
    for i, prec_i in enumerate(coeff_prec[: degree + 1]):
        if prec_i <= 0:
            bounded.append((i, 0))
            continue
        r = coeffs[i] % p**prec_i
        if r == 0:
            bounded.append((i, prec_i))
            continue
        v = 0
        while r % p == 0:
            r //= p
            v += 1
        exact.append((i, Fraction(v)))
    if not exact or exact[0][0] != 0 or exact[-1][0] != degree:
        raise PrecisionError(
            "valuation of an endpoint coefficient is uncertified",
            quantity="newton_polygon",
        )

    hull = []
    for pt in exact:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (y2 - y1) * (pt[0] - x1) >= (pt[1] - y1) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(pt)

    def hull_value(x):
        for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
            if x1 <= x <= x2:
                return y1 + Fraction(y2 - y1, x2 - x1) * (x - x1)
        raise AssertionError("abscissa outside hull range")

    for i, bound in bounded:
        if bound <= hull_value(i):
            raise PrecisionError(
                f"coefficient {i} has uncertifiable valuation (>= {bound}) on the hull",
                quantity="newton_polygon", level=i,
            )

    segments = tuple(
        (Fraction(y2 - y1, x2 - x1), x2 - x1) for (x1, y1), (x2, y2) in zip(hull, hull[1:])
    )
    return tuple((x, Fraction(y)) for x, y in hull), segments


def scan_weierstrass_degree(p, coeffs, coeff_prec):
    """Index of the first coefficient certified to be a unit, or None when
    an uncertified coefficient or the end comes first."""
    for k, (c, prec) in enumerate(zip(coeffs, coeff_prec)):
        if prec < 1:
            return None
        if c % p != 0:
            return k
    return None


# -- the shift function's window sum, t by t ---------------------------------


def f_shift_window_sum(f, tp, m):
    """The sum of f(tp, m, t) over one period e0*p^m <= t < (e0+s)*p^m."""
    p, s, e0 = tp.p, tp.s, tp.e0
    return sum(f(tp, m, t) for t in range(e0 * p**m, (e0 + s) * p**m))


def t0_f_shift(tp, m, t):
    """The shift value from t0 = t - e0*p^m itself: 0 unless s divides t0,
    else e0*(p^(v+1)-1) for v the level of t0, read by dividing t0 by p up
    to m times."""
    p, s, e0 = tp.p, tp.s, tp.e0
    t0 = t - e0 * p**m
    if t0 % s:
        return 0
    v = 0
    while v < m and t0 % p == 0:
        t0 //= p
        v += 1
    return e0 * (p ** (v + 1) - 1)


def scan_m0(ti):
    """m0 by scanning k = 0, 1, ... while psi((k+1+1/(p-1))e) < e*p^n."""
    psi, p, e = ti.bd.psi, ti.p, ti.e
    best, k = None, 0
    while psi((k + 1 + Fraction(1, p - 1)) * e) < e * p**ti.n:
        best, k = k, k + 1
    return best


# -- piecewise-linear functions by walking the segments ----------------------
#
# The reference for PLFunc: each query walks the segments from 0, adding up
# the value at each breakpoint as it goes, and reads only the breakpoints,
# slopes and value at the origin of the function.


def pl_walk_value(f, x):
    """f(x), the segments walked from 0 until one ends at or beyond x."""
    value = f.value_at_origin
    for i, left in enumerate(f.breakpoints):
        right = f.breakpoints[i + 1] if i + 1 < len(f.breakpoints) else None
        if right is None or x <= right:
            return value + f.slopes[i] * (x - left)
        value += f.slopes[i] * (right - left)
    raise AssertionError("unreachable")


def pl_walk_slope(f, x):
    """The slope of the last segment starting at or before x."""
    for i in range(len(f.breakpoints) - 1, -1, -1):
        if x >= f.breakpoints[i]:
            return f.slopes[i]
    raise AssertionError("x below the domain")


def pl_walk_preimage(f, y):
    """The x >= 0 with f(x) = y, the segments walked until one reaches y."""
    value = f.value_at_origin
    for i, left in enumerate(f.breakpoints):
        right = f.breakpoints[i + 1] if i + 1 < len(f.breakpoints) else None
        if right is None:
            return left + (y - value) / f.slopes[i]
        nxt = value + f.slopes[i] * (right - left)
        if y <= nxt:
            return left + (y - value) / f.slopes[i]
        value = nxt
    raise AssertionError("unreachable")


def pl_walk_inverse(f):
    """(breakpoints, slopes) of the inverse of f, which fixes 0: the images
    of f's breakpoints and the reciprocal slopes."""
    return (tuple(pl_walk_value(f, b) for b in f.breakpoints),
            tuple(1 / s for s in f.slopes))


def pl_walk_compose(f, g):
    """(breakpoints, slopes, value_at_origin) of f(g(x)), canonical: the
    kinks of g and the walked preimages of f's kinks above g(0), each
    segment's slope a difference quotient of walked values, and adjacent
    equal slopes merged."""
    g0 = pl_walk_value(g, Fraction(0))
    knots = sorted(set(g.breakpoints) | {pl_walk_preimage(g, b) for b in f.breakpoints if b > g0})
    ends = knots[1:] + [knots[-1] + 1]

    def fg(x):
        return pl_walk_value(f, pl_walk_value(g, x))

    bps, sls = [], []
    for left, right in zip(knots, ends):
        slope = (fg(right) - fg(left)) / (right - left)
        if not sls or slope != sls[-1]:
            bps.append(left)
            sls.append(slope)
    return tuple(bps), tuple(sls), fg(Fraction(0))


# -- the condition-1 bound ----------------------------------------------------


def literal_psi_ML_bound(ti, m, t):
    """s*p^t*a minus the sum over k < t of s(p-1)p^k psi((m-t+k+1)e), term
    by term, each psi value by walking the segments."""
    p, s, e, psi = ti.p, ti.tp.s, ti.bd.e, ti.bd.psi
    return s * p**t * ti.a - sum(
        s * (p - 1) * p**k * pl_walk_value(psi, (m - t + k + 1) * e) for k in range(t)
    )


def fraction_ces_floor(ti, m, t):
    """The closed form of the substituted bound, term by term over Fractions,
    split on y <= e and y > e (where t plays no part)."""
    p, s = ti.p, ti.tp.s
    e, a = Fraction(ti.e), Fraction(ti.a)
    y, h, z = ti.yhz.y, ti.yhz.h, ti.yhz.z
    if y <= e:
        return (
            s * p**t * a
            + s * (p**t - 1) * (e * p ** (h + 1) / (p - 1) - z)
            - s * p ** (m + h - t + 1) * Fraction(p ** (2 * t) - 1, p + 1) * (Fraction(p, p - 1) * e - y)
        )
    return (
        s * p**m * a
        + s * (p**m - 1) * (e * p ** (h + 1) / (p - 1) - z)
        - s * p**h * Fraction(p ** (2 * m) - 1, p + 1) * (Fraction(2 * p - 1, p - 1) * e - y)
    )


# -- randomized admissible break data -----------------------------------------


def random_break_data(rng, p=None, e=None, n=None, primes=(5, 7, 11, 13), n_max=5, den=1):
    """Upper-break sequences satisfying the admissibility rules, each break
    a multiple of 1/den."""
    from ramforge import BreakData

    p = p if p is not None else rng.choice(primes)
    e = e if e is not None else rng.randint(1, p - 1)
    n = n if n is not None else rng.randint(1, n_max)
    ceiling = Fraction(p * e, p - 1)
    threshold = Fraction(e, p - 1)
    b = Fraction(rng.randint(den, math.floor(ceiling * den)), den)
    upper = [b]
    while len(upper) < n:
        if b >= threshold:
            b = b + e
        else:
            lo, hi = math.ceil(p * b * den), math.floor(ceiling * den)
            b = Fraction(rng.randint(lo, hi), den)
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


# -- an in-scope family: u = (1 + p)X + X^(d+1) --------------------------------


def in_scope_closed_form(p, d, levels):
    """The depths i_0 .. i_levels of u = (1 + p)X + X^(d+1) over Z_p, and
    the Weierstrass degrees of its levels 1 .. levels, for p odd and p not
    dividing d(d + 1):

        i_n = d(p^(n+1) - 1)/(p - 1),    wd_n = i_n - i_(n-1) = d p^n.

    They depend on u mod p alone, so they hold for every u' = u + p v.

    Proof.  (a) Weierstrass: a series over Z_p whose reduction is nonzero
    has as many zeros in the open unit disc as the X-order of its
    reduction.  So u^(p^n)(X) - X has i_n + 1 zeros, i_n the depth of
    g^(p^n) for g = u mod p = X + X^(d+1), and the level quotient
    (u^(p^n)(X) - X)/(u^(p^(n-1))(X) - X) has degree i_n - i_(n-1).
    (b) With s = X^d, g^m(X)^d = G^m(s) for G(s) = s(1 + s)^d, and
    g^m(X) = X + cX^(j+1) + ... gives G^m(s) = s + dc s^(1+j/d) + ..., so
    as p does not divide d, depth(g^m) = d depth(G^m).  It remains that
    G^(p^n) has depth e_n = 1 + p + .. + p^n.
    (c) In t = 1/s, G is t -> t(1 + 1/t)^(-d) = t - d + r/t + O(t^-2) with
    r = d(d + 1)/2, a unit mod p; an element of depth e moves t by
    -c t^(1-e) + ...  Over F_p the p translates t - jd, j = 0 .. p - 1, have
    product t^p - d^(p-1) t, so the p steps of G^p add up to
    sum_j r/(t - jd) + ... = -r d^(p-1) t^(-p) + ...: G^p moves t by a unit
    times t^(1-e_1), e_1 = 1 + p.  The same sum, taken over the p steps of
    H = G^(p^(n-1)), which moves t by a unit times t^(1-e), e = e_(n-1),
    and whose iterates are t + j(H(t) - t) to that order, cancels the
    translation part p(H(t) - t) and leaves the next order, of
    t^(1 - e - p^n): e_n = e_(n-1) + p^n.  Sen's congruence e_n = e_(n-1)
    mod p^n (Ann. of Math. 90, 1969) is the check.  For p | d + 1 the
    formula fails: X + X^p over F_p is additive, of depth p^p - 1 at p.
    (d) The same depths hold for u = aX + cX^(d+1) + p v with a = 1 mod p
    and c a unit: with lambda^d = c in the algebraic closure of F_p,
    lambda g(X/lambda) = X + X^(d+1) for g = X + cX^(d+1), so g is conjugate
    to X + X^(d+1) by X -> lambda X; conjugation maps the iterates of g to
    those of X + X^(d+1) and X + bX^(j+1) + ... to X + b lambda^(-j) X^(j+1)
    + ..., so it keeps depths.
    """
    depths = [d * (p ** (n + 1) - 1) // (p - 1) for n in range(levels + 1)]
    return depths, [depths[n] - depths[n - 1] for n in range(1, levels + 1)]



# -- the multiplicative formal group ------------------------------------------


def formal_group_iterate(a, p, n, prec, trunc):
    """Coefficients of the p^n-th iterate of u = (1+X)^a - 1 mod (p^prec,
    X^trunc), for a = 1 mod p and a > 1.

    u is the endomorphism [a] of the multiplicative formal group, so its
    k-fold composite is (1+X)^(a^k) - 1, and the iterate is (1+X)^N - 1
    with N = a^(p^n): coefficient k >= 1 is C(N, k).  One pass over k
    builds C(N, k) = C(N, k-1) * (N - k + 1) / k as p^V * U, the valuation
    V and the unit U mod p^prec kept apart, so that no division by p is
    ever taken mod p^prec.

    N is too large to write, so N - j is read from R = N mod p^(prec + K),
    with K >= v_p(N - j) for every j < trunc: then v_p(R - j) = v_p(N - j),
    and the unit part of N - j is known mod p^(prec + K - v_p) to at least
    prec digits.  The bound K: let T be the largest t with p^t <= trunc - 1.
    Two j != j' below trunc differ by less than p^(T+1), so v_p(j - j') <= T,
    and at most one j, j* = N mod p^(T+1) when it is below trunc, can have
    v_p(N - j) > T.  N >= trunc > j*, so N - j* != 0, and its valuation is
    found exactly by raising the power of p until p^E no longer divides it.
    K is the larger of T and that valuation.
    """
    if a % p != 1 or a < 2:
        raise ValueError("a must be 1 mod p and above 1")
    small = a  # N itself while it is below trunc
    for _ in range(n):
        if small >= trunc:
            break
        small **= p
    mod = p**prec
    if small < trunc:
        return [0] + [math.comb(small, k) % mod for k in range(1, trunc)]

    T = 0
    while p ** (T + 1) <= trunc - 1:
        T += 1
    K = T
    j_star = pow(a, p**n, p ** (T + 1))
    if j_star < trunc:
        E = T + 1
        while (pow(a, p**n, p ** (E + 1)) - j_star) % p ** (E + 1) == 0:
            E += 1
        K = E  # v_p(N - j*)
    big = p ** (prec + K)
    R = pow(a, p**n, big)

    coeffs = [0] * trunc
    v, unit = 0, 1
    for k in range(1, trunc):
        top = (R - (k - 1)) % big
        bottom = k
        while top % p == 0:
            top //= p
            v += 1
        while bottom % p == 0:
            bottom //= p
            v -= 1
        unit = unit * top * pow(bottom, -1, mod) % mod
        coeffs[k] = unit * p**v % mod if v < prec else 0
    return coeffs

# -- report writers, key by key ------------------------------------------------
#
# The JSON writers of four reports and of the Newton polygon as they were
# written by hand, one key at a time, before ``jsonio.report_out`` wrote
# every report from its fields.


def reference_ram_sequence_out(rs):
    from ramforge.jsonio import int_out

    return {
        "p": int_out(rs.p),
        "lower": [int_out(i) for i in rs.lower],
        "upper": [int_out(b) for b in rs.upper],
        "certified_to": int_out(rs.certified_to),
    }


def reference_verdict_out(v):
    from ramforge.jsonio import int_out

    return {
        "valid": v.valid,
        "violations": [
            {"rule": x.rule, "index": int_out(x.index), "detail": x.detail} for x in v.violations
        ],
    }


def reference_trunc_object_out(obj):
    from ramforge.jsonio import field_out, int_out

    return {"field": field_out(obj.field), "e": int_out(obj.e)}


def reference_polygon_out(np_):
    from ramforge.jsonio import frac_out, int_out

    return {
        "vertices": [[int_out(i), frac_out(v)] for i, v in np_.vertices],
        "segments": [
            {
                "slope": frac_out(s.slope),
                "length": int_out(s.length),
                "root_valuation": frac_out(s.root_valuation),
            }
            for s in np_.segments
        ],
    }


def reference_dynamics_report_out(rep):
    """The report without ``prediction_in_scope``, which came after it."""
    from ramforge.jsonio import frac_out, index_report_out, int_out

    return {
        "p": int_out(rep.p),
        "prec": int_out(rep.prec),
        "trunc": int_out(rep.trunc),
        "depths": [int_out(i) for i in rep.depths],
        "depth_uncertified_at": int_out(rep.depth_uncertified_at),
        "upper": [int_out(b) for b in rep.upper],
        "fixed_point_counts": [int_out(c) for c in rep.fixed_point_counts],
        "index": index_report_out(rep.index) if rep.index is not None else None,
        "levels": [
            {
                "n": int_out(lv.n),
                "weierstrass_degree": int_out(lv.weierstrass_degree),
                "expected_wd": int_out(lv.expected_wd),
                "wd_matches": lv.wd_matches,
                "constant_valuation": int_out(lv.constant_valuation),
                "expected_constant_valuation": int_out(lv.expected_constant_valuation),
                "constant_matches": lv.constant_matches,
                "polygon": reference_polygon_out(lv.polygon) if lv.polygon is not None else None,
                "predicted_root_valuation": (
                    frac_out(lv.predicted_root_valuation)
                    if lv.predicted_root_valuation is not None
                    else None
                ),
                "single_segment_matches": lv.single_segment_matches,
                "note": lv.note,
            }
            for lv in rep.levels
        ],
        "rn": [int_out(r) for r in rep.rn],
        "snbound": list(rep.snbound) if rep.snbound is not None else None,
        "notes": list(rep.notes),
    }
