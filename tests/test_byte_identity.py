"""The closed-form censuses and the polynomial renderer give, byte for byte,
the outputs pinned here: the SHA-256 of every census report's JSON over a
grid of fields and shapes, and of ``poly_text`` over seeded polynomials."""

import hashlib
import random

import pytest

from pencilcensus.census import fiber_census, pencil_census, subspace_census
from pencilcensus.gf import parse_field_spec
from pencilcensus.polyring import Poly, poly_text

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
    """Polynomials of degree -inf to 7 with about a third of their
    coefficients zero, leading ones included."""
    f = parse_field_spec(str(q))
    rng = random.Random(f"poly-text-{q}")
    for _ in range(count):
        coeffs = [0 if rng.random() < 1 / 3 else rng.randrange(q)
                  for _ in range(rng.randrange(9))]
        yield Poly(f, coeffs)


def digest(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


@pytest.mark.parametrize("q", FIELDS)
def test_the_closed_form_censuses_match_their_digest(q):
    assert digest(census_lines(q)) == CENSUS_DIGESTS[q]


@pytest.mark.parametrize("q", FIELDS)
def test_poly_text_matches_its_digest(q):
    assert digest(poly_text(p) for p in seeded_polys(q)) == TEXT_DIGESTS[q]
