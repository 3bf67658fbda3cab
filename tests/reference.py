"""Reference enumerations and polynomial helpers that only the tests use."""

import itertools
import json
import operator

from pencilcensus import census
from pencilcensus.census import CENSUS_SCHEMA, CensusReport, partitions
from pencilcensus.errors import ExactnessError, ShapeError
from pencilcensus.gf import (_digits_of, field_new, kernel_basis_rows,
                             parse_field_spec, rows_mul, rref_rows)
from pencilcensus.polyring import (Factorization, coeffs_gcd,
                                   irreducibles_up_to, monic_tuples)
from pencilcensus.smith import InvariantFactorTuple


def mat_mul(field, a, b):
    """Product of two matrices given as lists of rows."""
    if any(len(row) != len(b) for row in a):
        raise ShapeError(f"every row of A needs {len(b)} entries, one per "
                         "row of B")
    return rows_mul(field, a, b)


def mat_inv(field, matrix):
    """Inverse of a square matrix given as rows, by Gauss-Jordan on [M | I]."""
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ShapeError("inverse needs a square matrix")
    aug = [list(row) + [int(i == j) for j in range(n)]
           for i, row in enumerate(matrix)]
    red = rref_rows(field, aug, 2 * n)
    if len(red) != n or any(red[i][i] != 1 for i in range(n)):
        raise ShapeError("matrix is singular")
    return [row[n:] for row in red]


def kernel_intersection(field, mats):
    """Canonical basis of the intersection of the kernels of the matrices,
    each given as rows.

    All matrices must have the same column count k; the result is a basis of
    a subspace of F_q^k with dimension k - rank(vertical stack).
    """
    if not mats:
        raise ShapeError("need at least one matrix")
    cols = len(mats[0][0])
    stacked = [row for m in mats for row in m]
    if any(len(row) != cols for row in stacked):
        raise ShapeError("column counts differ")
    return kernel_basis_rows(field, stacked, cols)


def spec_string(field):
    """Field spec in the CLI grammar: "p" for prime fields, else "p^m"."""
    return str(field.p) if field.m == 1 else f"{field.p}^{field.m}"


def sort_key(coeffs):
    return (len(coeffs), coeffs)


def report_from_json(text):
    data = json.loads(text)
    if data.get("schema") != CENSUS_SCHEMA:
        raise ValueError(f"not a census report: {data.get('schema')!r}")
    return CensusReport(parameters=data["parameters"],
                        entries={key: int(v) for key, v in data["entries"].items()},
                        source=data["source"])


def chains_with_product(field, f, k):
    """All k-tuples p_1 | p_2 | ... | p_k of monic polynomials with product
    f, a coefficient tuple.

    Built from the factorization of f: a chain corresponds to one weakly
    increasing exponent sequence per irreducible divisor, i.e. a partition of
    its exponent into at most k parts.  It factors through
    ``census.factorize``, so a test that memoises that name memoises this.
    Each p_i is multiplied out with :func:`schoolbook_mul`, so the chains
    share no product with the census walk they check.
    """
    per_factor = []
    for g, e in census.factorize(field, f).factors:
        seqs = [tuple([0] * (k - len(lam)) + sorted(lam))
                for lam in partitions(e, max_parts=k)]
        per_factor.append((g, seqs))
    for combo in itertools.product(*(seqs for _, seqs in per_factor)):
        polys = []
        for i in range(k):
            p = (1,)
            for (g, _), seq in zip(per_factor, combo):
                if seq[i]:
                    p = schoolbook_mul(field, p,
                                       schoolbook_pow(field, g, seq[i]))
            polys.append(p)
        yield InvariantFactorTuple(field, polys)


def invariant_factor_tuples(field, k):
    """All valid k-tuples of invariant factors with total degree <= k: the
    chains with product f for every monic f of degree <= k."""
    for d in range(k + 1):
        for f in monic_tuples(field, d):
            yield from chains_with_product(field, f, k)


def trimmed(coeffs):
    """A coefficient sequence as a tuple without trailing zeros."""
    coeffs = list(coeffs)
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return tuple(coeffs)


def schoolbook_mul(field, a, b):
    """The coefficients of the product of two coefficient sequences, each
    output coefficient summed on its own with ``field.add`` over
    ``field.mul`` of every pair whose degrees add up to its degree, trailing
    zeros dropped: the product that ``polyring.coeffs_mul`` must equal."""
    out = []
    for s in range(len(a) + len(b) - 1):
        c = 0
        for i in range(max(0, s - len(b) + 1), min(s, len(a) - 1) + 1):
            c = field.add(c, field.mul(a[i], b[s - i]))
        out.append(c)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def _minus_one(field):
    """-1 of ``field``, found with ``field.add`` alone."""
    return next(e for e in field.elements() if field.add(1, e) == 0)


def schoolbook_submul(field, a, c, b):
    """The coefficients of a - c*b: a added, coefficient by coefficient
    with ``field.add``, to -1 times :func:`schoolbook_mul` of c and b,
    trailing zeros dropped: what ``polyring.coeffs_submul`` must equal."""
    minus_one = _minus_one(field)
    cb = schoolbook_mul(field, c, b)
    out = list(a) + [0] * max(len(cb) - len(a), 0)
    for i, v in enumerate(cb):
        out[i] = field.add(out[i], field.mul(minus_one, v))
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def schoolbook_divmod(field, a, b):
    """Quotient and remainder of a by the nonzero b, coefficient sequences
    without trailing zeros, by long division: while the remainder is as
    long as b, cancel its leading term with ``field.inv`` of b's leading
    coefficient and :func:`schoolbook_submul` of a monomial.  What
    ``polyring.coeffs_divmod`` must equal."""
    quot = [0] * max(len(a) - len(b) + 1, 0)
    rem = tuple(a)
    lead_inv = field.inv(b[-1])
    while len(rem) >= len(b):
        shift = len(rem) - len(b)
        quot[shift] = field.mul(rem[-1], lead_inv)
        monomial = (0,) * shift + (quot[shift],)
        rem = schoolbook_submul(field, rem, monomial, b)
    return tuple(quot), rem


def schoolbook_pow(field, g, e):
    """g^e as coefficients: 1 times g, e times over, each product by
    :func:`schoolbook_mul`."""
    out = (1,)
    for _ in range(e):
        out = schoolbook_mul(field, out, g)
    return out


def types_by_remultiplying(field, max_degree, slots):
    """The ``(d, polys, blocks)`` walk that ``census._visit`` must visit in
    the same order, each chain a list of coefficient tuples rebuilt by
    multiplying every power g^part into its slot afresh, 1 included, with
    :func:`schoolbook_mul`."""
    irreducibles = irreducibles_up_to(field, max_degree)

    def walk(start, d, polys, blocks):
        yield d, polys, blocks
        for i in range(start, len(irreducibles)):
            g = irreducibles[i]
            deg = len(g) - 1
            if d + deg > max_degree:
                break  # irreducibles come in ascending degree
            for e in range(1, (max_degree - d) // deg + 1):
                for lam in partitions(e, max_parts=slots):
                    chain = list(polys)
                    for j, part in enumerate(lam, start=1):
                        chain[-j] = schoolbook_mul(
                            field, chain[-j], schoolbook_pow(field, g, part))
                    yield from walk(i + 1, d + deg * e, chain,
                                    blocks + ((deg, lam),))

    yield from walk(0, 0, [(1,)] * slots, ())


def factorize_full_sieve(field, coeffs):
    """Factor the nonzero polynomial with these coefficients by trial
    division, with :func:`schoolbook_divmod`, by every monic irreducible up
    to its own degree, in canonical order, until the cofactor is 1: the
    factorization that ``polyring.factorize`` must equal."""
    unit = coeffs[-1]
    h = schoolbook_divmod(field, coeffs, (unit,))[0]
    factors = []
    for f in irreducibles_up_to(field, len(h) - 1):
        if h == (1,) or len(f) > len(h):
            break
        e = 0
        while True:
            quot, rem = schoolbook_divmod(field, h, f)
            if rem:
                break
            h = quot
            e += 1
        if e:
            factors.append((f, e))
    if h != (1,):
        raise ExactnessError("trial division left a nontrivial cofactor")
    return Factorization(unit, tuple(factors))


def poly_lcm(field, a, b):
    """The monic lcm of two coefficient tuples, () if either is zero."""
    if not a or not b:
        return ()
    quot = schoolbook_divmod(field, schoolbook_mul(field, a, b),
                             coeffs_gcd(field, a, b))[0]
    return schoolbook_divmod(field, quot, (quot[-1],))[0]


def poly_to_json(field, coeffs):
    return {"field": spec_string(field), "coeffs": list(coeffs)}


def poly_from_json(data):
    """The (field, coefficient tuple) of :func:`poly_to_json`."""
    field = parse_field_spec(str(data["field"]))
    return field, tuple(int(c) for c in data["coeffs"])


def similarity_classes_by_moves(p, m, k):
    """The move-by-move class search that ``oracle._similarity_classes``
    must equal tuple for tuple, each move decoding and re-encoding a matrix.

    One ``(leader, size)`` per similarity class of k x k matrices over
    GF(p^m), in leader order: its least index and the number of matrices a
    graph search visits from it.  The search conjugates by the cycle
    e_0 -> e_1 -> ... -> e_0, by I + E_(0,1) and, when q > 2, by scaling e_0
    by w primitive.  Each move acts on the k^2 digits directly."""
    f = field_new(p, m)
    q, kk = f.q, k * k
    place = [q ** i for i in range(kk)]

    def cycle():  # entry (r, c) moves to (r+1, c+1), both mod k
        to = [(i + 1) % k for i in range(k)]
        cycled = [place[to[i // k] * k + to[i % k]] for i in range(kk)]
        return lambda d: sum(map(operator.mul, d, cycled))

    def transvection(i, j):  # row i += row j, then column j -= column i
        def move(d):
            e = list(d)
            for c in range(k):
                e[i * k + c] = f.add(e[i * k + c], e[j * k + c])
            for r in range(0, kk, k):
                e[r + j] = f.sub(e[r + j], e[r + i])
            return sum(map(operator.mul, e, place))
        return move

    def scale(i):  # row i *= w, column i *= w^-1
        def move(d):
            e = list(d)
            for c in range(k):
                if c != i:
                    e[i * k + c] = f.mul(e[i * k + c], w)
                    e[c * k + i] = f.mul(e[c * k + i], w_inv)
            return sum(map(operator.mul, e, place))
        return move

    moves = []
    if k > 1:
        moves += [cycle(), transvection(0, 1)]
        if q > 2:
            w = primitive_element(f)
            w_inv = f.inv(w)
            moves.append(scale(0))
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


def block_classes_by_group(p, m, k, r):
    """The orbits that ``oracle._tall_list`` must list at shape (k, k-r),
    found from the whole group rather than by recursion: every block upper
    triangular P with diagonal blocks k-r and r is listed and applied to the
    k x (k-r) blocks X by X -> P*X*P11^-1, P11 the top left (k-r) x (k-r)
    block of P.  Maps the index of each X (row-major digits, least first) to
    its orbit's ``(leader, size)``: its least index and its size.  Needs
    k - r >= 1."""
    f = field_new(p, m)
    q, c = f.q, k - r

    def filled(cells, values):
        rows = [[0] * k for _ in range(k)]
        for (i, j), v in zip(cells, values):
            rows[i][j] = v
        return rows

    def index(x):
        return sum(v * q ** (i * c + j) for i, row in enumerate(x)
                   for j, v in enumerate(row))

    cells = [(i, j) for i in range(k) for j in range(k) if i < c or j >= c]
    group = []
    for values in itertools.product(range(q), repeat=len(cells)):
        g = filled(cells, values)
        if len(rref_rows(f, g, k)) == k:
            group.append((g, mat_inv(f, [row[:c] for row in g[:c]])))
    orbits = {}
    for values in itertools.product(range(q), repeat=k * c):
        x = [list(values[i * c:(i + 1) * c]) for i in range(k)]
        if index(x) not in orbits:
            orbit = {index(rows_mul(f, rows_mul(f, g, x), inv))
                     for g, inv in group}
            orbits.update(dict.fromkeys(orbit, (min(orbit), len(orbit))))
    return orbits


def primitive_element(f):
    """The least element of ``f`` whose first q - 1 powers are distinct: the
    generator that ``FieldCtx`` must find."""
    q = f.q
    return next(a for a in range(1, q) if len(set(
        itertools.accumulate([a] * (q - 1), f.mul))) == q - 1)


def encode(f, digits):
    """The field element whose base-p digits, least first, are ``digits``."""
    return sum(d * f.p ** i for i, d in enumerate(digits))


def digitwise_add(f, a, b):
    """a + b added coefficient by coefficient mod p in the base-p encoding."""
    p, m = f.p, f.m
    return encode(f, [(x + y) % p for x, y in zip(_digits_of(a, p, m),
                                                   _digits_of(b, p, m))])


def digitwise_neg(f, a):
    """-a negated coefficient by coefficient mod p in the base-p encoding."""
    return encode(f, [(-x) % f.p for x in _digits_of(a, f.p, f.m)])


def raw_rem(a, b, p):
    """Remainder of the coefficient tuple a mod the monic b over F_p, both in
    ascending degree order."""
    rem = list(a)
    db = len(b) - 1
    while len(rem) > db:
        shift = len(rem) - 1 - db
        fac = rem[-1]
        for i, c in enumerate(b):
            rem[shift + i] = (rem[shift + i] - fac * c) % p
        while rem and rem[-1] == 0:
            rem.pop()
    return tuple(rem)


def smallest_irreducible_by_trial_division(p, m):
    """The least monic irreducible of degree m over F_p, candidates compared
    from the highest coefficient down, each tried against every monic of
    degree 1 to m // 2 on raw coefficient tuples."""
    divisors = [tuple(reversed(tail)) + (1,) for d in range(1, m // 2 + 1)
                for tail in itertools.product(range(p), repeat=d)]
    for desc in itertools.product(range(p), repeat=m):
        cand = tuple(reversed(desc)) + (1,)
        if all(raw_rem(cand, div, p) for div in divisors):
            return cand
    raise ExactnessError(f"no irreducible of degree {m} over F_{p}")


def digitwise_mul(f, a, b):
    """a * b as polynomials in the base-p encoding, reduced mod f.modulus."""
    p, m = f.p, f.m
    prod = [0] * (2 * m - 1)
    for i, x in enumerate(_digits_of(a, p, m)):
        for j, y in enumerate(_digits_of(b, p, m)):
            prod[i + j] = (prod[i + j] + x * y) % p
    rem = raw_rem(prod, f.modulus, p)
    return encode(f, rem)


def log_tables_by_order_walk(f):
    """The ``(exp, log)`` tables that ``FieldCtx`` must build for the
    extension field ``f``: the least generator g found by walking each
    candidate's powers with :func:`digitwise_mul` until they return to 1,
    then a second walk of g's powers to fill the tables."""
    q = f.q
    for g in range(2, q):
        seen = 1
        acc = g
        while acc != 1:
            acc = digitwise_mul(f, acc, g)
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
        acc = digitwise_mul(f, acc, g)
    return exp, log
