"""Reference enumerations and polynomial helpers that only the tests use."""

import itertools
import operator

from pencilcensus import census
from pencilcensus.census import _types, partitions
from pencilcensus.gf import field_new, parse_field_spec
from pencilcensus.oracle import _digits_of
from pencilcensus.polyring import Poly, poly_gcd
from pencilcensus.smith import InvariantFactorTuple


def chains_with_product(f, k):
    """All k-tuples p_1 | p_2 | ... | p_k of monic polynomials with product f.

    Built from the factorization of f: a chain corresponds to one weakly
    increasing exponent sequence per irreducible divisor, i.e. a partition of
    its exponent into at most k parts.  It factors through
    ``census.factorize``, so a test that memoises that name memoises this.
    """
    per_factor = []
    for g, e in census.factorize(f).factors:
        seqs = [tuple([0] * (k - len(lam)) + sorted(lam))
                for lam in partitions(e, max_parts=k)]
        per_factor.append((g, seqs))
    one = Poly.one(f.field)
    for combo in itertools.product(*(seqs for _, seqs in per_factor)):
        polys = []
        for i in range(k):
            p = one
            for (g, _), seq in zip(per_factor, combo):
                if seq[i]:
                    p = p * g ** seq[i]
            polys.append(p)
        yield InvariantFactorTuple(polys)


def invariant_factor_tuples(field, k):
    """All valid k-tuples of invariant factors with total degree <= k."""
    for _, polys, _ in _types(field, k, k):
        yield InvariantFactorTuple(polys)


def poly_lcm(a, b):
    if a.is_zero() or b.is_zero():
        return Poly.zero(a.field)
    return ((a * b) // poly_gcd(a, b)).monic()


def poly_to_json(p):
    return {"field": p.field.spec_string, "coeffs": list(p.coeffs)}


def poly_from_json(data):
    field = parse_field_spec(str(data["field"]))
    return Poly(field, [int(c) for c in data["coeffs"]])


def similarity_classes_by_moves(p, m, k):
    """The move-by-move class search that ``oracle._similarity_classes``
    must equal tuple for tuple, each move decoding and re-encoding a matrix.

    One ``(leader, size)`` per GL_k-conjugacy class of k x k matrices over
    GF(p^m), in leader order: its least index and the number of matrices a
    graph search visits from it.  The search conjugates by the cycle
    e_i -> e_(i+1), by I + E_01 and, when q > 2, by diag(w, 1, ..., 1) with
    w primitive, each acting on the k^2 digits directly."""
    f = field_new(p, m)
    q, kk = f.q, k * k
    place = [q ** i for i in range(kk)]
    # conjugating by the cycle moves entry (r, c) to (r+1, c+1), both mod k
    cycled = [place[(i // k + 1) % k * k + (i % k + 1) % k] for i in range(kk)]

    def transvection(d):  # row 0 += row 1, then column 1 -= column 0
        e = list(d)
        for c in range(k):
            e[c] = f.add(e[c], e[k + c])
        for r in range(0, kk, k):
            e[r + 1] = f.sub(e[r + 1], e[r])
        return sum(map(operator.mul, e, place))

    def scale(d):  # row 0 *= w, column 0 *= w^-1
        e = list(d)
        for i in range(1, k):
            e[i], e[i * k] = f.mul(e[i], w), f.mul(e[i * k], w_inv)
        return sum(map(operator.mul, e, place))

    moves = []
    if k > 1:
        moves = [lambda d: sum(map(operator.mul, d, cycled)), transvection]
        if q > 2:
            # w is primitive when its first q - 1 powers are distinct
            w = next(a for a in range(2, q) if len(set(
                itertools.accumulate([a] * (q - 1), f.mul))) == q - 1)
            w_inv = f.inv(w)
            moves.append(scale)
    seen = bytearray(q ** kk)
    classes = []
    for leader in range(q ** kk):
        if seen[leader]:
            continue
        seen[leader] = 1
        stack, size = [leader], 0
        while stack:
            digits = _digits_of(stack.pop(), q, kk)
            size += 1
            for move in moves:
                image = move(digits)
                if not seen[image]:
                    seen[image] = 1
                    stack.append(image)
        classes.append((leader, size))
    return tuple(classes)


def log_tables_by_order_walk(f):
    """The ``(exp, log)`` tables that ``FieldCtx`` must build for the
    extension field ``f``: the least generator g found by walking each
    candidate's powers with ``_raw_mul`` until they return to 1, then a
    second walk of g's powers to fill the tables."""
    q = f.q
    for g in range(2, q):
        seen = 1
        acc = g
        while acc != 1:
            acc = f._raw_mul(acc, g)
            seen += 1
        if seen == q - 1:
            break
    exp = [0] * (2 * (q - 1))
    log = [0] * q
    acc = 1
    for i in range(q - 1):
        exp[i] = acc
        exp[i + q - 1] = acc
        log[acc] = i
        acc = f._raw_mul(acc, g)
    return exp, log
