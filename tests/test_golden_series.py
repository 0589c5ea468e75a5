"""Golden output digests of the series and morphism commands over F_{p^w}.

Seeded series over F_4, F_9, F_27 = F_3[Y]/(Y^3 + 2Y + 1) at 44 terms
(inside the kernel's int64 word bound) and at 200 (past it, where the long
Newton steps and products run on slots), and F_{q^2} = F_q[Y]/(Y^2 + 1),
q = 2^31 - 1 (slots in int64 halves), run through ``series compose``,
``series inverse``, ``series iterate --n 1`` and ``trunc compose``.  Their
coefficients are written as full and short lists and with unreduced
entries, so the reader's padding and reduction are in what is hashed, and
one refused input per field pins an input document.  Each command's
documents, with their exit codes, are hashed in order per field: the digests
pin every byte the storage and the kernel's layouts write.
"""

import contextlib
import hashlib
import io
import json
import random

import pytest

from ramforge import cli

Q = 2**31 - 1

# name -> (p, modulus, trunc)
FIELDS = {
    "F4": (2, [1, 1, 1], 30),
    "F9": (3, [1, 0, 1], 30),
    "F27-44": (3, [1, 2, 0, 1], 44),
    "F27-200": (3, [1, 2, 0, 1], 200),
    "Fq2": (Q, [1, 0, 1], 60),
}

DIGESTS = {
    "F4": {
        "series compose": "94389d1302c86d49bb04e1e5564c8b8fe5adb2ca368a0b40fd46096db48cfc4a",
        "series inverse": "bbdd46301e965011f9bf7b9cf2c4d9a40438c647c5ca713a33cfe7a5d6218cac",
        "series iterate": "f07e0d5a39c71accd75c63d2ac7824b639c8c5453c29155a90ceb820ac60040a",
        "trunc compose": "b730aa73e880649e72a340983cc27306a802dc6a819b93a191ef352b0d070b1f",
    },
    "F9": {
        "series compose": "93241b1512c38f29f909f677cef947c0f7e7dfe3a3dca492949de1b7e80c7beb",
        "series inverse": "bc0162fb6e912c7d7814128504fb9232fbfd8f07496e0d5cbfa824a1a92bd141",
        "series iterate": "e55a270a03208e495c6d5b38768d46c87739abf360e1b1ffe9bb82ff330542c3",
        "trunc compose": "dfbe040d9f120fe3360c9886807d4a96934f369800a890812d2bf73955a80747",
    },
    "F27-44": {
        "series compose": "8bc4de4a891998893316333d9a671e71d9be9b31c98e4ab4be5266faef8f8716",
        "series inverse": "b55fbb41009f64ae3d8c8443ca50b0ab5264fdac172e99541ed432fc3a1765cc",
        "series iterate": "3ac56528073d577e45659116b7c3d4c869834b16126521f4f9f3047b1bf31f53",
        "trunc compose": "6d796c92ac24eee8126895c7034195d76dec28f88a73b04f3da19a68a9ee68fb",
    },
    "F27-200": {
        "series compose": "40c6106153699abd1d20e6351d5baabf7c5876d0e3fe7ac2103a61d1167710b9",
        "series inverse": "5465b98348ef47a143e15251ad937841d0604a0e11b30aacb7fd9d107a6422db",
        "series iterate": "c91c3d4b1bef312d98bde609ef89edbfa60dc7848bb010538edeadd458103ba9",
        "trunc compose": "f2778653c9af3e1f2363b58dca49c5ac6b1f52b6ed74fa3d284be6b798292f66",
    },
    "Fq2": {
        "series compose": "876155ec7c543320c9bf8f95f45add5795f8ea02a688834e4dfefb551dbe1f66",
        "series inverse": "d98e4cfa8883090cd41f29baf4cf8a75474efc492615bbd58aaf5f79b910c0ff",
        "series iterate": "34cd25f912c7e4b20bda870587586e7d34b8edd8ac0b9679272be4fe503d3767",
        "trunc compose": "c834d60ff2b18c38575bc108b0292717ac255afa4135c4fecd55c94332f1654e",
    },
}


def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return f"{code}\n{out.getvalue()}"


def coeff(rng, p, w, unit=False):
    """A random coefficient: a full list, a short list or unreduced entries."""
    while True:
        c = [rng.randrange(p) for _ in range(w)]
        if not unit or any(c):
            break
    kind = rng.randrange(4)
    if kind == 1:
        while len(c) > 1 and c[-1] == 0:
            c.pop()
    elif kind == 2:
        c = [x + p * rng.randrange(3) for x in c]
    return c


def series_doc(rng, p, modulus, trunc, lead):
    """A series doc of trunc terms: zero below X^lead, a unit at X^lead."""
    w = len(modulus) - 1
    coeffs = [[0] * w] * lead + [coeff(rng, p, w, unit=True)]
    coeffs += [coeff(rng, p, w) for _ in range(trunc - lead - 1)]
    return json.dumps({"p": p, "w": w, "modulus": modulus, "trunc": trunc, "coeffs": coeffs})


def morphism_doc(rng, p, modulus, e):
    w = len(modulus) - 1
    obj = {"field": {"p": p, "w": w, "modulus": modulus}, "e": e}
    eta = [coeff(rng, p, w, unit=True)] + [coeff(rng, p, w) for _ in range(e - 1)]
    return json.dumps({"source": obj, "target": obj, "r": 1, "res_twist": rng.randrange(w), "eta_coeff": eta})


def documents(name):
    """command -> the concatenated documents of that command over one field."""
    p, modulus, trunc = FIELDS[name]
    rng = random.Random(f"golden-series-{name}")
    out = {"series compose": [], "series inverse": [], "series iterate": [], "trunc compose": []}
    outer, inner = series_doc(rng, p, modulus, trunc, 0), series_doc(rng, p, modulus, trunc, 1)
    out["series compose"].append(run(["series", "compose", "--outer", outer, "--inner", inner]))
    # an inner series with a nonzero constant term is refused
    out["series compose"].append(run(["series", "compose", "--outer", inner, "--inner", outer]))
    out["series inverse"].append(run(["series", "inverse", "--series", inner]))
    out["series iterate"].append(run(["series", "iterate", "--series", inner, "--n", "1"]))
    g, f = morphism_doc(rng, p, modulus, trunc), morphism_doc(rng, p, modulus, trunc)
    out["trunc compose"].append(run(["trunc", "compose", "--g", g, "--f", f]))
    return {cmd: "".join(docs) for cmd, docs in out.items()}


@pytest.fixture(scope="module")
def docs():
    return {name: documents(name) for name in FIELDS}


@pytest.mark.parametrize("name", list(FIELDS))
def test_digest(docs, name):
    got = {cmd: hashlib.sha256(text.encode()).hexdigest() for cmd, text in docs[name].items()}
    assert got == DIGESTS[name]


def test_the_set_reaches_every_branch(docs):
    # every command succeeds once per field, and the refused composition
    # ends in an input document
    for name in FIELDS:
        for cmd, text in docs[name].items():
            assert text.startswith("0\n"), (name, cmd)
        refused = docs[name]["series compose"].split("}\n2\n", 1)[1]
        assert json.loads(refused)["error"]["type"] == "input"
