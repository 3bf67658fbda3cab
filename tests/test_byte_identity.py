"""The closed-form censuses, the enumeration, the polynomial renderer and
the ``snf`` command give, byte for byte, the outputs pinned here: the
SHA-256 of every census report's JSON over a grid of fields and shapes, of
every enumerated report and of every full walk's tally over a smaller grid,
of ``coeffs_text`` over seeded polynomials, of ``pencilcensus snf`` over
seeded matrices, and of ``pencilcensus count`` and ``pencilcensus factor``
over seeded requests, refusals included."""

import contextlib
import hashlib
import io
import json
import random

import pytest

from pencilcensus import oracle
from pencilcensus.cli import FORMULAS, main
from pencilcensus.census import fiber_census, pencil_census, subspace_census
from pencilcensus.errors import BudgetExceededError
from pencilcensus.gf import echelon_subspaces, parse_field_spec
from pencilcensus.polyring import coeffs_mul, coeffs_text

from reference import trimmed

FIELDS = (2, 3, 4, 5, 7, 8, 9)

# q -> SHA-256 of the censuses' JSON, one report a line
CENSUS_DIGESTS = {
    2: "61ab367bd30fe4b07347fe45e25076fd"
        "78ee3411e6239b38848070070ff9b932",
    3: "4d816d8d588c189093b94801d70ed69d"
        "fbf723b97f4f68106164e29e7e92f500",
    4: "25285b4736f2611013fd4bfee42926db"
        "326bbb0c607e2c5b0a7b9bfdd20bd5ec",
    5: "1869a2c51ac9c80c9f198bb47e878492"
        "b46f138d84b7f7ce4ac0412c9794ae90",
    7: "d17056cec2cfb2c47524868ac3e0a710"
        "611b8f56a4c8aafdb9f5e34a026634ee",
    8: "e08b81b1a7a670bd0de49f6f6c610a81"
        "96b7f047e4a982df417672ddb9d2467d",
    9: "cffd247c6b3b550380845f0dd1c73ba3"
        "b96e07d6b6477fe6aee6a5d00042b89f",
}

# q -> SHA-256 of the seeded polynomials' texts, one a line
TEXT_DIGESTS = {
    2: "5d1ec2ced638b7027ae650d21a14d2ed"
        "26059c50dedffda13e724bc3e54b3ae5",
    3: "9b96e9a369fd8e3c648a4fb20b326f19"
        "714b22cb63a29f56e52cc506309855b3",
    4: "383e1eda11a5864fddde838bb50a3447"
        "df04d6441b12a9b5693cbab6f1592d69",
    5: "216b0130035cc871c622378c58b39c73"
        "8a41c9c99920426965b71df0c00a36fd",
    7: "86ebe935dc4f4fc577463dc1439d8d06"
        "1d08a4e893d6121958b12d6faca0074c",
    8: "f464df1493944bfdede576b53f73fb73"
        "6cad32ddabb6aaa9b21c9c4089a70db4",
    9: "ceef16be6529fb308acb26729762b256"
        "66488d3111cc6f558ff788ae6b61ab73",
}


def shapes(q):
    """n, k <= 3, plus n = k = 4 for q <= 5."""
    out = [(n, k) for n in range(1, 4) for k in range(1, n + 1)]
    return out + [(4, 4)] if q <= 5 else out


def census_lines(q):
    f = parse_field_spec(str(q))
    for n, k in shapes(q):
        yield pencil_census(f, n, k).to_json()
        yield fiber_census(f, n, k).to_json()
        for d in range(k + 1):
            yield subspace_census(f, n, k, d).to_json()


def seeded_polys(q, count=300):
    """Coefficient tuples of degree -inf to 7 with about a third of their
    coefficients zero, leading ones included."""
    rng = random.Random(f"poly-text-{q}")
    for _ in range(count):
        yield trimmed([0 if rng.random() < 1 / 3 else rng.randrange(q)
                       for _ in range(rng.randrange(9))])


def digest(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


@pytest.mark.parametrize("q", FIELDS)
def test_the_closed_form_censuses_match_their_digest(q):
    assert digest(census_lines(q)) == CENSUS_DIGESTS[q]


@pytest.mark.parametrize("q", FIELDS)
def test_poly_text_matches_its_digest(q):
    f = parse_field_spec(str(q))
    assert digest(coeffs_text(f, p) for p in seeded_polys(q)) == \
        TEXT_DIGESTS[q]


# The enumeration over GF(2), GF(3), GF(4) and GF(9) at 1 <= k <= n <= 3:
# every mode, pair mode at k < n and subspace mode on every echelon basis,
# the reports of :func:`oracle.run` and the tallies of :func:`oracle._walk`
# with the mode's key, the reference that the list is checked against.  A
# change to the list and to the full walk together passes the reduced ==
# full tests; it does not pass these.  Left out: nilext at (9, 3, 1), whose
# 9^6 completions per representative take about a minute in both.
ORACLE_FIELDS = (2, 3, 4, 9)
SLOW = {(9, 3, 1, "nilext")}


def oracle_configs(q, mode, walk=False):
    """The grid's configurations in ``mode`` over GF(q); with ``walk``,
    only those with q^(nk) <= 2^10."""
    f = parse_field_spec(str(q))
    spec = oracle.MODE_TABLE[mode]
    for n in range(1, 4):
        for k in range(1, n + 1 - spec.tall):
            if (q, n, k, mode) in SLOW or walk and q ** (n * k) > 2 ** 10:
                continue
            for basis in echelon_subspaces(f, k) if spec.subspace else [None]:
                yield oracle.EnumConfig(f.p, f.m, n, k, mode, basis)


def report_lines(q, mode, workers):
    """Each report's JSON, or the shape the default budget refuses."""
    for cfg in oracle_configs(q, mode):
        try:
            yield oracle.run(cfg._replace(workers=workers)).to_json()
        except BudgetExceededError:
            yield f"refused {cfg.n} {cfg.k} {cfg.subspace}"


def walk_lines(q, mode):
    key = getattr(oracle, f"_{mode}_key")
    for cfg in oracle_configs(q, mode, walk=True):
        yield repr((cfg.n, cfg.k, cfg.subspace,
                    sorted(oracle._walk(cfg, key).items())))


# (q, mode) -> SHA-256 of the reports, one a line
REPORT_DIGESTS = {
    (2, "pencil"): "b0c49edb4b51b3ac751b3b3686c2e679"
        "7162373c6ffb14d2b55030d3ba757a27",
    (2, "pair"): "4e70620c890fb42941da708175a4ced2"
        "1ca0ee72176c992e7f66ad58559506a0",
    (2, "fiber"): "5784f2bd8f95c65d959a2236534db3b0"
        "aea4a7478438b97a84eaac27811fcbef",
    (2, "subspace"): "023175f2f86bca25f3988c5e9d28046d"
        "69471f880544bc7373ed8c93cca89197",
    (2, "nilext"): "76db12ceb6b64c8485403a92e76bac05"
        "abf4bdd6fd1b15aa1b8a28f3070bb8fe",
    (3, "pencil"): "962c3643c0ea4370a9201ac6aa568643"
        "9dac458d3e64e5e19a0e5990b1b2857e",
    (3, "pair"): "7cae474b1d666ea724debfaa00664e33"
        "0d4f2a44043d2806011f82300a11f91e",
    (3, "fiber"): "7f54b9f1ddedc2345c962a7b3620fc5b"
        "a5558b3755e09769523897881fba51ac",
    (3, "subspace"): "43897e0afcf04e535e7e1f0b1c6ce044"
        "63731cb7dbc602e32277f4838f0eaad2",
    (3, "nilext"): "31a2e12ead8ccf5306cd1769e86db166"
        "17092dc4b10ed49a23adcec255ac30bb",
    (4, "pencil"): "2616df328418c531bda43dd20772f0a6"
        "36bb8239f3398dd26dad7e7fdda85b6c",
    (4, "pair"): "2c00a3c49d4d2e899667b1f1f9275832"
        "13ff1ef4d6fb3bd3da64f52da3b07c56",
    (4, "fiber"): "0383db4e604d71c5b66611a35ac1cbb7"
        "540ebdc3d7dca3016c83c014b7d6761b",
    (4, "subspace"): "f457d1a08c3ba8d9407d7ed5f8e43c63"
        "a895b597e91a456a1a86a9d3b5f3d403",
    (4, "nilext"): "cdaabd6fb7fc0258942b944d734ca3f6"
        "b6abebcf8ed4226ba9ba3dfcde7b317d",
    (9, "pencil"): "c1ab2262c52c3f04c0393af33b59f7c1"
        "5bf479c4d5cf33a5eaf5ac4e1e8dd0c7",
    (9, "pair"): "4008b95eee75963d363af60308bcc90b"
        "7eb24a2855888900edd82e7ba5fab6f7",
    (9, "fiber"): "a91ec5a556765ad68bb890dfa57b95dd"
        "edd6823b1707ac479ee887f8fd764f62",
    (9, "subspace"): "d1d6e8227d45d554028301841a5b6ef5"
        "bc88ee73a158392c7b95780e5aaa5700",
    (9, "nilext"): "e06fc26824fb1d593e7c97678f58157f"
        "0d723d605ef8107c6c2ffe9717152879",
}

# (q, mode) -> SHA-256 of the full walks' tallies, one a line
WALK_DIGESTS = {
    (2, "pencil"): "e081067f206c8041937a658afb73e3ab"
        "02cfaa8a5a86e35a5ac108e5c0501697",
    (2, "pair"): "e3e490b5c4898265e14ce759ff014319"
        "54678d6c098d32358891138a70ba35e1",
    (2, "fiber"): "666b0fe3a987400553dd57c623a7affe"
        "68a81335d6a0476be0ae4184aaadaef7",
    (2, "subspace"): "2e842c1bf22ec6ea76715566a25eb4f5"
        "f5ec0d9bb4471129101874fa81f15f1c",
    (2, "nilext"): "325c3b8ab9866d6ce5b17b70b5cc8993"
        "0bd89dd24e0c5575149bc399070f5040",
    (3, "pencil"): "05e75e6e763e46526967e8f732beac8c"
        "bf06daed2c76a004d48fd8dde665102c",
    (3, "pair"): "c31df1fe7f22caefbface7ddde5ee079"
        "0652d9d8951e36ecd69520038eb72c2e",
    (3, "fiber"): "c3ad94b29da135f951314f346220c895"
        "95cc84231a4c405d5a3e0d64b90baa64",
    (3, "subspace"): "331d43e569ab538d7fff929153166786"
        "eb66adb8533ba2590dd5abab2f49c6d6",
    (3, "nilext"): "b07d72a288c5334d4389467cef854007"
        "62c6e9d29e7e6b81b917d8db505d628c",
    (4, "pencil"): "3eb86c9a5f169dd369838deb451e4e93"
        "7ebc8bdf62ab2d90dd5185893cdceb19",
    (4, "pair"): "b9dcdefbac79b3d891afa137777fa591"
        "3cd8fbebefde4f6b06de5d84e20c0846",
    (4, "fiber"): "5438b5626d3b0e8e16e199112b795169"
        "ffc25cf1d327c1139f1898a540b42ccd",
    (4, "subspace"): "070370317ebb62659999c4e87045cad8"
        "40769643a3905418c836246610be0e0e",
    (4, "nilext"): "a49731cf55731d7826d2db8a6f708b01"
        "6fcebf79cb0087be4c075ae17ac0961c",
    (9, "pencil"): "72bca692b70fb9e869da4b630b8cb1ed"
        "1d35b2c4e1446e42e987291c45778434",
    (9, "pair"): "b0e16879ce53a72ff9ea09748f18d00e"
        "5e96a3eacfb4cf70406f3ad08bc56bda",
    (9, "fiber"): "72bca692b70fb9e869da4b630b8cb1ed"
        "1d35b2c4e1446e42e987291c45778434",
    (9, "subspace"): "affe9a7cd44f4fb0348dbf19aa42e4e9"
        "9de9889d228a6671a4bf3ec1336cf7ad",
    (9, "nilext"): "42028491e9ed779c294dc1b5513d4275"
        "aa2e6baa28189426f21d4556104fc175",
}

ORACLE_GRID = [(q, mode) for q in ORACLE_FIELDS for mode in oracle.MODES]


@pytest.mark.parametrize("q,mode", ORACLE_GRID)
def test_every_enumerated_report_matches_its_digest(q, mode):
    for workers in (1, 3):
        assert digest(report_lines(q, mode, workers)) == \
            REPORT_DIGESTS[q, mode], workers


@pytest.mark.parametrize("q,mode", ORACLE_GRID)
def test_every_full_walk_tally_matches_its_digest(q, mode):
    assert digest(walk_lines(q, mode)) == WALK_DIGESTS[q, mode]


SNF_FIELDS = (2, 3, 5, 4, 8, 9)

# q -> SHA-256 of the ``snf`` outputs of :func:`snf_argvs`, one request after
# another
SNF_DIGESTS = {
    2: "bf17a1b4bf855c0e9dcfdbfc1bd8268c"
        "ecdad8462001a14947c889392abd5f75",
    3: "d3070b04662d721202c9437eddbb18e2"
        "2b556f645e93e05bb9ba35c6f1d31a74",
    5: "4fab6169ff623b771d1d9f737ba071d7"
        "cd1f569e9c8d4cdadbdddb7b235711ed",
    4: "16cdb9d4285cb4be048373bf9c131ae2"
        "59522ff5eeb347624c62c6f8e6e3cbfd",
    8: "1d2ad00a7088454f41e2b8f52f12c41c"
        "cd0e709e85c091e6b09b0b75ae467f49",
    9: "11930a0093f7dcd34eadbacf9616f33c"
        "d5e1c4dbc6d43521535a961e05fd1501",
}


def snf_argvs(q, count=170):
    """Seeded ``snf`` requests over GF(q), each in table and JSON format:
    raw polynomial matrices up to 3 x 3 with entries of degree at most 2,
    about a third of those with more than one row rank deficient (the last
    row a constant multiple, maybe zero, of the first), and ``--pencil``
    matrices with 1 <= k <= n <= 5, most of them tall."""
    f = parse_field_spec(str(q))
    rng = random.Random(f"snf-cli-{q}")
    for i in range(count):
        if i % 2:
            n = rng.randint(1, 5)
            k = rng.randint(1, min(n, 3))
            grid = [[rng.randrange(q) for _ in range(k)] for _ in range(n)]
            argv = ["--pencil", "--matrix", json.dumps(grid)]
        else:
            rows, cols = rng.randint(1, 3), rng.randint(1, 3)
            grid = [[trimmed([rng.randrange(q)
                              for _ in range(rng.randrange(4))])
                     for _ in range(cols)] for _ in range(rows)]
            if rows > 1 and rng.random() < 1 / 3:
                c = trimmed((rng.randrange(q),))
                grid[-1] = [coeffs_mul(f, c, e) for e in grid[0]]
            argv = ["--matrix", json.dumps([[coeffs_text(f, p) for p in row]
                                            for row in grid])]
        for fmt in ("table", "json"):
            yield ["snf", "--q", str(q), *argv, "--format", fmt]


def snf_lines(q):
    for argv in snf_argvs(q):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(argv) == 0
        yield out.getvalue()


@pytest.mark.parametrize("q", SNF_FIELDS)
def test_the_snf_command_matches_its_digest(q):
    assert digest(snf_lines(q)) == SNF_DIGESTS[q]


# q -> SHA-256 of the outputs of :func:`count_factor_argvs`, one request after
# another, each as its exit code, its stdout and its stderr
COUNT_FACTOR_DIGESTS = {
    2: "df39f4ff3b9f67d5a58dc47771ac8c7b"
        "a5d6b6ba807e411faeb452a46e8efd77",
    3: "776c77b4892a49340c6d83fbc8cb4a29"
        "bd3ea2c3de6d0d471e853eea9b44d26c",
    5: "bfe41149bb0a07f542cd048808d553c0"
        "cb4e1812af1ac90f134070c7e04464aa",
    4: "e6497de133b48ed5c95a2e7b015fb66a"
        "311fe505e74dff85abda48f2e71b7bd3",
    8: "d5198fea04bb9e2d91018c6845039835"
        "1e9194a908a685e8b41cca22ef9589f2",
    9: "ac30a81038f1fa41ede4bf51000bee66"
        "10241d2234928a5a2ff82e625778e701",
}


def _monic(f, rng, top):
    """The coefficient tuple of a monic polynomial of degree 0 to ``top``, a
    third of its lower coefficients zero."""
    return tuple([0 if rng.random() < 1 / 3 else rng.randrange(f.q)
                  for _ in range(rng.randint(0, top))] + [1])


def _tuple_text(f, rng, k):
    """A chain p_1 | ... | p_k, each p_j a monic multiple of the last, of
    total degree at most about k, or, for about a quarter of them, a
    tuple the parser refuses: two factors swapped, one scaled off monic,
    one zero or one a bad term; with the chain's total degree."""
    chain = [_monic(f, rng, 1)]
    for _ in range(k - 1):
        chain.append(coeffs_mul(f, chain[-1], _monic(f, rng, 1)))
    texts = [coeffs_text(f, p) for p in chain]
    fault = rng.randrange(12)
    j = rng.randrange(k)
    if fault == 0 and k > 1:
        texts[j - 1], texts[j] = texts[j], texts[j - 1]
    elif fault == 1 and f.q > 2:
        texts[j] = coeffs_text(f, [f.mul(c, 2) for c in chain[j]])
    elif fault == 2:
        texts[j] = "0"
    elif fault == 3:
        texts[j] = rng.choice(("x^", "y+1", f"{f.q}*x", "x**2", ""))
    return "|".join(texts), sum(len(p) - 1 for p in chain)


def _poly_text_of(f, rng, top):
    """A polynomial of degree 0 to ``top``, monic three times in four, or,
    once in twelve, a text the parser refuses or that reads as zero."""
    roll = rng.randrange(12)
    if roll == 0:
        return rng.choice(("0", "x^", "y+1", f"[{f.q}]", "x**2", "x^2+-1"))
    if roll == 1 and f.m == 1:
        return f"x^{rng.randint(1, top)}-{rng.randrange(1, f.q)}"
    p = _monic(f, rng, top)
    if roll < 4:
        p = [f.mul(c, rng.randrange(1, f.q)) for c in p]
    return coeffs_text(f, p)


def count_factor_argvs(q, count=120):
    """Seeded ``count`` and ``factor`` requests over GF(q), each in table and
    JSON format: ``count`` with every formula, its shape sometimes one the
    formula refuses (k > n, d off the tuple's degree or past k, a degree
    past k, --n off the tuple's length), sometimes with a flag the formula
    does not take or without one it needs; ``factor`` of polynomials of
    degree up to 8, some not monic, some constant, some refused."""
    f = parse_field_spec(str(q))
    rng = random.Random(f"count-factor-cli-{q}")
    for _ in range(count):
        formula = rng.choice((*FORMULAS, "factor", "factor"))
        k = rng.randint(1, 3)
        n = k + rng.choice((0, 0, 1, 2, -1))
        if formula == "factor":
            argv = ["factor", "--poly", _poly_text_of(f, rng, 8)]
        else:
            names = FORMULAS[formula][1]
            chain, degree = _tuple_text(f, rng, k)
            value = {"n": n, "k": k, "r": rng.randint(0, k + 1),
                     "d": degree if rng.random() < 3 / 4
                     else rng.randint(0, k + 1),
                     "tuple": chain, "poly": _poly_text_of(f, rng, k + 1)}
            flags = [name for name in names if name not in ("q", "field")]
            if formula == "class" and rng.random() < 1 / 2:
                flags.append("n")
            roll = rng.randrange(16)
            if roll == 0:
                flags.remove(rng.choice(flags))
            elif roll == 1:
                flags.append(rng.choice(
                    [name for name in value if name not in names]))
            argv = ["count", "--formula", formula]
            for name in dict.fromkeys(flags):
                argv += ["--" + name, str(value[name])]
        for fmt in ("table", "json"):
            yield argv[:1] + ["--q", str(q)] + argv[1:] + ["--format", fmt]


def count_factor_lines(q):
    return cli_outcomes(count_factor_argvs(q))


def cli_outcomes(argvs):
    """Each request's exit code, stdout and stderr."""
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        yield f"{code}\n{out.getvalue()}{err.getvalue()}"


@pytest.mark.parametrize("q", SNF_FIELDS)
def test_the_count_and_factor_commands_match_their_digest(q, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # the width argparse wraps usage at
    assert digest(count_factor_lines(q)) == COUNT_FACTOR_DIGESTS[q]


# q -> SHA-256 of the outputs of :func:`snf_check_argvs`, as for ``count``
SNF_CHECK_DIGESTS = {
    2: "d82924dc66b1686828ce4802e20bde01"
        "2f2d94467990bbd84ef46e305ced6bd2",
    3: "773a2b577219f322d713a6aaae19f307"
        "8598e7dd7d8606bfc73e4c3352a2e122",
    5: "931cfe0add2d84abedbd8b1943cf704a"
        "de029811e9f75939d84bd8deec530c28",
    4: "c5cb772cd8ab78950e505c620ac7e33d"
        "180662a2dcbfe03f5f4dc507d5dcd261",
    8: "4f9b12421b4d68b865712b9c88832ca0"
        "01294fc92010f52f2e2282dcd62ad257",
    9: "10848b8af41a209f98d3d518e069142f"
        "6742b8021f2f377c236e6d8c732fcd3c",
}


def snf_check_argvs(q, count=40):
    """Seeded ``snf`` grids, most of them malformed: text that is not JSON,
    JSON that is not an array of arrays, rows of unequal or zero length,
    entries of every JSON type and integers out of range, each with and
    without --pencil and with --n and --k absent, right or wrong, so that
    every refusal comes up alone and before or after every other."""
    rng = random.Random(f"snf-check-cli-{q}")
    ints = [0, 1, q - 1] * 4 + [q, -1]
    texts = [0, 1, "x", "x+1", "1", "x", "x+1", "1", "", "y"]
    palette = ints + texts + [True, 1.5, None, [1], {"a": 1}]
    for _ in range(count):
        roll = rng.randrange(10)
        if roll == 0:
            text = rng.choice(("[[1,", "x", "", "[[1]]]"))
        elif roll == 1:
            text = json.dumps(rng.choice((5, None, "s", {}, [], [[]],
                                          [[], []], [1, 2], [[1], 2])))
        else:
            width = rng.randint(1, 3)
            pool = rng.choice((ints, texts, palette))
            grid = [[rng.choice(pool)
                     for _ in range(width if rng.random() < 5 / 6
                                    else rng.randint(0, 3))]
                    for _ in range(rng.randint(1, 3))]
            text = json.dumps(grid)
        try:
            rows = json.loads(text)
            nrows = len(rows)
            ncols = len(rows[0]) if isinstance(rows[0], list) else 1
        except (ValueError, TypeError, IndexError, KeyError):
            nrows = ncols = 1
        for pencil in ([], ["--pencil"]):
            for n in (None, nrows, nrows + 1):
                for k in (None, ncols, ncols + 1):
                    argv = ["snf", "--q", str(q), *pencil, "--matrix", text]
                    argv += ["--n", str(n)] if n is not None else []
                    argv += ["--k", str(k)] if k is not None else []
                    yield argv


@pytest.mark.parametrize("q", SNF_FIELDS)
def test_the_snf_command_checks_its_grid_as_pinned(q, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert digest(cli_outcomes(snf_check_argvs(q))) == SNF_CHECK_DIGESTS[q]
