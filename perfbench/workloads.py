"""Seeded request lists for the three workloads, and the reference table.

A request is a dict with a ``key`` (its name in the reference table) and either
``argv`` (served through ``polybernoulli.cli.main``) or ``call`` plus ``args``
(a public series constructor called directly).  Every request a list can hold
comes from a fixed universe, enumerated by :func:`universe`, so that one
reference table, generated and cross-checked once by ``make_references.py``,
covers every seed.

Why these workloads:

* ``verify``: the headline user task, a verdict on every identity check.
  Mostly ``MultiPoly`` ``*`` and ``substitute``; the ``gen_pb_poly`` cache is
  read far more often than it is written.
* ``construct``: distinct closed-form requests, so top-level cache keys never
  repeat (the cache-write counterpart to ``verify``).  ``N`` spans 8..48 so
  growth in ``N`` shows.  The plain ``number`` requests reach n = 96; the ones
  past the package's cap of 64 fail, and are kept so that the defect counts.
* ``series``: the independent oracle route.  ``PowerSeries`` does the work
  and ``MultiPoly`` stays idle.
"""

from __future__ import annotations

import hashlib
import random
from fractions import Fraction

WORKLOADS = ("verify", "construct", "series")

K_VALUES = range(-4, 5)
GEN_N = range(8, 49)
PLAIN_N = range(1, 97)
PLAIN_CAP = 64
TABLE_N_MAX = range(8, 41)
TABLE_K_MIN = range(-4, 1)
TABLE_K_MAX = range(0, 5)
EVAL_N = range(10, 51)
GF_ORDERS = range(20, 61)
ITERATED_K = range(1, 5)

# (ln a, ln b) and (ln a, ln b, ln c, x); ln a + ln b is never 0.
POINTS_2 = (
    (Fraction(2, 3), Fraction(-1, 5)),
    (Fraction(1), Fraction(1, 2)),
    (Fraction(-3, 4), Fraction(5, 3)),
)
POINTS_4 = (
    (Fraction(1, 2), Fraction(1, 3), Fraction(3, 7), Fraction(5, 2)),
    (Fraction(-2, 5), Fraction(1), Fraction(2), Fraction(-1, 3)),
    (Fraction(3, 2), Fraction(-1, 4), Fraction(-5, 6), Fraction(1, 2)),
)

def digest(text: str) -> str:
    """The reference form of one output: a short SHA-256 of its text."""
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def series_text(series) -> str:
    """Canonical text of a series result: its coefficients, comma-separated."""
    return ",".join(str(c) for c in series.coeffs)


def _cli(*argv) -> dict:
    argv = [str(a) for a in argv]
    return {"key": " ".join(argv), "argv": argv}


def _call(name: str, k: int, order: int) -> dict:
    return {"key": f"{name} {k} {order}", "call": name, "args": [k, order]}


def polynomial(n: int, k: int) -> dict:
    return _cli("polynomial", "-n", n, "-k", k, "--generalized")


def number_gen(n: int, k: int) -> dict:
    return _cli("number", "-n", n, "-k", k, "--generalized")


def number(n: int, k: int) -> dict:
    return _cli("number", "-n", n, "-k", k)


def table(n_max: int, k_min: int, k_max: int) -> dict:
    return _cli("table", "--n-max", n_max, f"--k-min={k_min}", f"--k-max={k_max}")


def eval_number(n: int, k: int, point: int) -> dict:
    la, lb = POINTS_2[point]
    return _cli("eval", "--number", n, "-k", k, "--generalized", f"--ln-a={la}", f"--ln-b={lb}")


def eval_poly(n: int, k: int, point: int) -> dict:
    la, lb, lc, x = POINTS_4[point]
    return _cli(
        "eval", "--poly", n, "-k", k, "--generalized",
        f"--ln-a={la}", f"--ln-b={lb}", f"--ln-c={lc}", f"--x={x}",
    )


def gf(k: int, order: int) -> dict:
    return _call("gf_poly_bernoulli", k, order)


def iterated(k: int, order: int) -> dict:
    return _call("gf_iterated_integral", k, order)


VERIFY = _cli("verify", "--suite", "all")


def _grid(values: range, count: int) -> list[int]:
    """``count`` evenly spaced values from first to last."""
    return [values[(len(values) - 1) * i // (count - 1)] for i in range(count)]


# Op cost grows like N^4, so the median over ops is steady only if no draw can
# change which op sits at the median.  Sizes are therefore fixed and the seed
# draws the upper indices, points, the cheap requests and the order; the
# comments give the ops that are always cheaper and always dearer than the
# median ones.


def _construct(rng: random.Random) -> list[dict]:
    """14 requests; the median op is the cold N = 23 polynomial.

    Cheaper: the N = 8, 13, 18 polynomials, the generalized number (n <= 24),
    the plain number below the cap and the table.  Dearer: N = 28..48 and 46.
    The plain number past the cap fails and is not timed.
    """
    # k = 1 costs about half as much (every odd Bernoulli number past the
    # first vanishes), so it always takes N = 8 and never the median.
    ks = [1] + rng.sample([k for k in K_VALUES if k != 1], len(K_VALUES) - 1)
    out = [polynomial(n, k) for n, k in zip(_grid(GEN_N, len(ks)), ks)]
    # Shares its k with the N = 8 polynomial, so whichever of the two runs
    # second reuses the other's cached values and the cold one stays dear.
    out.append(polynomial(46, ks[0]))
    out.append(number_gen(rng.randint(8, 24), rng.choice(K_VALUES)))
    out.append(number(rng.randint(1, PLAIN_CAP), rng.choice(K_VALUES)))
    out.append(number(rng.randint(PLAIN_CAP + 1, PLAIN_N[-1]), rng.choice(K_VALUES)))
    out.append(table(rng.choice(TABLE_N_MAX), rng.choice(TABLE_K_MIN), rng.choice(TABLE_K_MAX)))
    rng.shuffle(out)
    return out


def _series(rng: random.Random) -> list[dict]:
    """20 requests; the median ops are the four n = 26 evaluations.

    Cheaper: n = 10 and 18, gf_poly_bernoulli at order 20, and the three
    gf_iterated_integral calls.  Dearer: n = 34..50 and gf_poly_bernoulli at
    orders 40 and 60.
    """
    sizes = _grid(EVAL_N, 6)
    sizes.insert(2, sizes[2])
    numbers = rng.sample([(k, p) for k in K_VALUES for p in range(len(POINTS_2))], len(sizes))
    polys = rng.sample([(k, p) for k in K_VALUES for p in range(len(POINTS_4))], len(sizes))
    out = [eval_number(n, *kp) for n, kp in zip(sizes, numbers)]
    out += [eval_poly(n, *kp) for n, kp in zip(sizes, polys)]
    for order in _grid(GF_ORDERS, 3):
        out.append(gf(rng.choice(K_VALUES), order))
        out.append(iterated(rng.choice(ITERATED_K), order))
    rng.shuffle(out)
    return out


def requests(workload: str, seed: int) -> list[dict]:
    """The request list each repetition of a run serves, in order."""
    if workload == "verify":
        return [VERIFY]
    rng = random.Random(f"{workload}/{seed}")
    if workload == "construct":
        return _construct(rng)
    if workload == "series":
        return _series(rng)
    raise ValueError(f"unknown workload: {workload!r}")


def past_cap(request: dict) -> bool:
    """A plain ``number`` request beyond the package's n cap of 64."""
    argv = request.get("argv", ())
    return (
        len(argv) == 5 and argv[0] == "number" and int(argv[2]) > PLAIN_CAP
    )


def universe() -> dict[str, list[dict]]:
    """Every request any list can hold, grouped by family."""
    return {
        "verify": [VERIFY],
        "polynomial": [polynomial(n, k) for k in K_VALUES for n in GEN_N],
        "number_gen": [number_gen(n, k) for k in K_VALUES for n in GEN_N],
        "number": [number(n, k) for k in K_VALUES for n in PLAIN_N],
        "table": [
            table(n, lo, hi) for n in TABLE_N_MAX for lo in TABLE_K_MIN for hi in TABLE_K_MAX
        ],
        "eval_number": [
            eval_number(n, k, p) for k in K_VALUES for p in range(len(POINTS_2)) for n in EVAL_N
        ],
        "eval_poly": [
            eval_poly(n, k, p) for k in K_VALUES for p in range(len(POINTS_4)) for n in EVAL_N
        ],
        "gf": [gf(k, o) for k in K_VALUES for o in GF_ORDERS],
        "iterated": [iterated(k, o) for k in ITERATED_K for o in GF_ORDERS],
    }
