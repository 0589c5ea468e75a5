"""Golden output digests of the Herbrand and condition-checker commands.

A seeded set of break data from ``helpers.random_break_data`` (integral and
fractional breaks, both Z_p flags, supplied and defaulted ``a`` and ``m``)
runs through ``check main``, ``check proot``, ``check m0``, ``herbrand
psi``/``phi``/``compose``/``eval`` and a transfer document (psi, phi, y, h,
z and the two closed forms, as the benchmark writes it).  Each command's
documents, with their exit codes, are hashed in order; the digests pin every
byte, so a change to the arithmetic behind them that alters any output
fails here.  Input errors are hashed too: which inputs are refused, and
with what reason, is output.
"""

import contextlib
import hashlib
import io
import json
import random
from fractions import Fraction as F

import pytest

from ramforge import cli, jsonio
from ramforge.herbrand import (
    extract_yhz,
    lower_break_formula,
    phi_from_breaks,
    psi_from_breaks,
    psi_ie_formula,
)

from helpers import random_break_data

BREAK_DATA = 300

DIGESTS = {
    "check main": "175b5a31585c6cdca11595b6761f6b0cb48c12c76d03279ab1d02027c950bb0f",
    "check proot": "296988cca147305d3f9b2c8540b41d98e551e341964294afe9592f39e389c682",
    "check m0": "ac7093bb47b9d7afdd1bbfa981553ede2e7c62c684e38a6919a44e980802e51b",
    "transfer": "ec928f69ba529809a198b0e9f6fed5455e2dc5277cf9a842450ff00ffec83372",
    "herbrand psi": "0c6569c367048b50642b318c7d361726a5aec28919940e1a9cc0526acf3bff80",
    "herbrand phi": "056b76f82bd2d5c0329f8c245f9350b6f7f19bd7b74bbfd5e190d65210ea0183",
    "herbrand compose": "30ab441aa9726e9b987863120a2e6c5e45c25b65fe10a790cedfb035a3718d38",
    "herbrand eval": "5599a88512f4bb318017a1f08522d4f6cb47421d574e62afabb8ffac988daef1",
}


def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return f"{code}\n{out.getvalue()}"


def transfer_doc(bd):
    yhz = extract_yhz(bd)
    return {"psi": jsonio.plfunc_out(psi_from_breaks(bd)), "phi": jsonio.plfunc_out(phi_from_breaks(bd)),
            "y": jsonio.frac_out(yhz.y), "h": yhz.h, "z": jsonio.frac_out(yhz.z),
            "lower_formula": [jsonio.frac_out(lower_break_formula(bd, yhz, i)) for i in range(yhz.h, bd.n)],
            "psi_ie_formula": [jsonio.frac_out(psi_ie_formula(bd, yhz, i)) for i in range(bd.n - yhz.h)]}


def eval_points(rng, psi):
    """The knots of psi, a point between two of them, a random rational, and
    points whose numerators pass 2^63 and 2^64."""
    xs = list(psi.breakpoints) + [(psi.breakpoints[0] + psi.breakpoints[-1]) / 3]
    xs.append(F(rng.randint(0, 10**4), rng.randint(1, 48)))
    xs += [F(2**63 + rng.randint(0, 99), rng.randint(1, 7)), F(2**64 + 1, 3)]
    return [jsonio.frac_out(x) for x in xs]


def documents():
    """kind -> the concatenated documents of that kind, in input order."""
    rng = random.Random(20260)
    data = [random_break_data(rng, primes=(5, 7, 11, 13), n_max=5, den=rng.choice([1, 1, 2, 3]))
            for _ in range(BREAK_DATA)]
    out = {kind: [] for kind in DIGESTS}
    for i, bd in enumerate(data):
        doc = jsonio.break_data_out(bd)
        cap = int(bd.e) * bd.p**bd.n
        for zp in (True, False):
            inputs = dict(doc, contained_in_zp=zp)
            if rng.random() < 0.4:
                inputs["a"] = rng.randint(1, cap)
            if rng.random() < 0.3:
                inputs["m"] = rng.randint(1, bd.n)
            text = json.dumps(inputs)
            out["check main"].append(run(["check", "main", "--input", text]))
            out["check proot"].append(run(["check", "proot", "--input", text]))
            out["check m0"].append(run(["check", "m0", "--input", text]))
        text = json.dumps(doc)
        out["transfer"].append(json.dumps(transfer_doc(bd), sort_keys=True))
        out["herbrand psi"].append(run(["herbrand", "psi", "--input", text]))
        out["herbrand phi"].append(run(["herbrand", "phi", "--input", text]))
        psi, phi = psi_from_breaks(bd), phi_from_breaks(bd)
        other = data[(i + 1) % len(data)]
        for f, g in ((phi, psi), (psi_from_breaks(other), phi), (psi, psi_from_breaks(other))):
            out["herbrand compose"].append(run(["herbrand", "compose", "--outer", json.dumps(jsonio.plfunc_out(f)),
                                                "--inner", json.dumps(jsonio.plfunc_out(g))]))
        func = json.dumps(jsonio.plfunc_out(psi))
        for x in eval_points(rng, psi):
            out["herbrand eval"].append(run(["herbrand", "eval", "--func", func, "--x", x]))
    return {kind: "".join(docs) for kind, docs in out.items()}


@pytest.fixture(scope="module")
def docs():
    return documents()


@pytest.mark.parametrize("kind", list(DIGESTS))
def test_digest(docs, kind):
    assert hashlib.sha256(docs[kind].encode()).hexdigest() == DIGESTS[kind]


def test_the_set_reaches_every_branch(docs):
    # both exit codes, fractional breaks, the proot path and a granted
    # guarantee are all among the documents hashed
    main = docs["check main"]
    assert "\n0\n" in "\n" + main and "\n2\n" in "\n" + main
    assert '"path": "proot"' in main and '"guarantee": "p^' in main
    assert any(f"/{d}\"" in docs["herbrand psi"] for d in (2, 3))
