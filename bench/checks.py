"""Independent checks of collisionlab's outputs.

Nothing here calls collisionlab.  Primality comes from sympy, factorials and
logarithms from mpmath's real (non-interval) arithmetic at 50 digits, and
every formula is restated from the paper's definitions.  Each check returns
a list of problems; an empty list means the output is correct.

sympy is imported inside the functions that need it, after the timed part
of a run, so that it never counts towards the workload's peak RSS.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import mpmath
from mpmath import mpf

PINNED = json.loads((Path(__file__).resolve().parent / "digests.json").read_text())

# the seven collision values below 10**6, with their canonical positions
KNOWN_COLLISIONS = (
    (120, ((16, 2), (10, 3))),
    (210, ((21, 2), (10, 4))),
    (1540, ((56, 2), (22, 3))),
    (3003, ((78, 2), (15, 5), (14, 6))),
    (7140, ((120, 2), (36, 3))),
    (11628, ((153, 2), (19, 5))),
    (24310, ((221, 2), (17, 8))),
)

DPS = 50


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def compare_pinned(label: str, got: dict[str, str], pinned: dict[str, str]) -> list[str]:
    return [
        f"{label}: {key} digest {got.get(key, '<missing>')[:12]}... != pinned {want[:12]}..."
        for key, want in pinned.items()
        if got.get(key) != want
    ]


# ---------------------------------------------------------------------------
# the certificate

def certificate_problems(report: dict, witness: bytes, *, q_lo: int, q_hi: int,
                         segments: int, complete: bool, gap_min: int, gap_cap: int,
                         smooth_bound: int) -> list[str]:
    """Check a certificate report and its witness stream line by line.

    Every witness must divide its window element exactly and be a prime
    above the smoothness bound; every q must be a prime in [q_lo, q_hi)
    whose gap to the next prime lies in [gap_min, gap_cap]; the per-window
    line counts must equal the report's `refuted` counts.
    """
    import sympy

    problems: list[str] = []
    windows = {f"{a}-{b}": (a, b) for a, b in report["config"]["windows"]}
    for key, want in (("failures", []), ("gap_cap_violations", []), ("coverage_ok", True),
                      ("segments_done", segments), ("complete", complete)):
        if report.get(key) != want:
            problems.append(f"report {key} = {report.get(key)!r}, expected {want!r}")

    per_window = {w: 0 for w in windows}
    seen: dict[int, set[str]] = {}
    last_q = 0
    for lineno, line in enumerate(witness.decode().splitlines(), 1):
        try:
            rec = json.loads(line)
            q, w, offset, prime = rec["q"], rec["window"], rec["offset"], rec["prime"]
        except (ValueError, KeyError, TypeError) as exc:
            problems.append(f"witness line {lineno}: unreadable ({exc})")
            continue
        bad = []
        if w not in windows or not windows[w][0] <= offset <= windows[w][1]:
            bad.append(f"offset {offset} outside window {w}")
        if prime <= smooth_bound or (q + offset) % prime or not sympy.isprime(prime):
            bad.append(f"{prime} is not a prime factor > {smooth_bound} of {q + offset}")
        if q < last_q or w in seen.get(q, ()):
            bad.append("lines out of order or repeated")
        if q not in seen:
            gap = sympy.nextprime(q) - q if sympy.isprime(q) else 0
            if not (q_lo <= q < q_hi and gap_min <= gap <= gap_cap):
                bad.append(f"q = {q} is not a prime in [{q_lo}, {q_hi}) with gap in [{gap_min}, {gap_cap}]")
        if bad:
            problems.append(f"witness line {lineno}: " + "; ".join(bad))
        per_window[w] = per_window.get(w, 0) + 1
        seen.setdefault(q, set()).add(w)
        last_q = q
    if per_window != report["refuted"]:
        problems.append(f"witness lines per window {per_window} != refuted {report['refuted']}")
    if len(seen) != report["gap_prime_count"]:
        problems.append(f"{len(seen)} gap primes witnessed, report counts {report['gap_prime_count']}")
    return problems


# ---------------------------------------------------------------------------
# closed forms restated in mpmath

def dusart(x) -> mpf:
    el = mpmath.log(x)
    return x / el * (1 + 1 / el + 2 / el**2 + mpf("7.59") / el**3)


def stirling_f(z) -> mpf:
    return z * mpmath.log(z) - z + mpmath.log(2 * mpmath.pi * z) / 2 + 1 / (12 * z)


def lemma32(F: int) -> mpf:
    F = mpf(F)
    pib = dusart(2 * F)
    return (pib * mpmath.log(2 * F - 1)
            + stirling_f(mpf(53) / 200 * (F - 1))
            + stirling_f(F - mpf(147) / 200 * (F - 1))
            - (mpf("0.53") * (F - 1) - pib) * mpmath.log((2 * F - 2) ** mpf(1.5) - 2 * F + 1))


def nmax_ratio(k: int, l: int) -> mpf:
    """The n-bound log(n - k) <= ratio at grid point (k, l), Dusart mode."""
    pib = dusart(mpf(2 * (k + l) - 1))
    arg1 = mpf(53 * k) / 200
    num = pib * mpmath.log(2 * k + l) + stirling_f(arg1) + stirling_f(arg1 + l - 1)
    return num / (mpf(53 * k) / 100 + l - 1 - pib)


def nmax_problems(result: dict) -> list[str]:
    with mpmath.workdps(DPS):
        ratio = nmax_ratio(result["argmax_k"], result["argmax_l"])
        got = mpf(result["log_n_max"])
        if not (ratio <= got and got - ratio <= mpf("1e-12") * ratio):
            return [f"nmax31: log_n_max {result['log_n_max']!r} does not enclose {mpmath.nstr(ratio, 20)}"]
    return []


def expected_state(lhs, rhs, strict: bool):
    """HOLDS/FAILS for the claim lhs < rhs (lhs <= rhs unless strict), None if too close to call."""
    if abs(lhs - rhs) <= mpf("1e-9") * (1 + abs(lhs) + abs(rhs)):
        return None
    return "HOLDS" if lhs < rhs else "FAILS"


def verdict_problem(label: str, got: str, want, hyp_got: dict, hyp_want: dict) -> list[str]:
    if hyp_got != hyp_want:
        return [f"{label}: hypotheses {hyp_got} != {hyp_want}"]
    if not all(hyp_want.values()):
        want = "INDETERMINATE"
    if want is not None and got != want:
        return [f"{label}: verdict {got}, exact recomputation gives {want}"]
    return []


def eq12(delta: int, n: int, m: int, k: int, l: int) -> bool:
    if n - m < 0 or n - k < 0:
        return False
    return math.comb(2 * n + delta, n - m) == math.comb(2 * n + l, n - k)


def check21_expected(t) -> tuple[dict, object]:
    delta, n, m, k, l = t
    hyp = {"eq12": eq12(*t), "ordering": 0 <= m < k and 2 * k < n, "l_gt_delta": l > delta}
    if not all(hyp.values()):
        return hyp, None
    v1 = expected_state((l - delta) * mpmath.log(mpf(2 * n + l) / (n + k + l)),
                        mpf((k - m) * (k + m + delta + 1)) / (n - k), True)
    v2 = expected_state(mpf((k - m) * (k + m + delta)) / (n + k + delta),
                        (l - delta) * mpmath.log(mpf(2 * n) / (n + k)), True)
    if v1 is None or v2 is None:
        return hyp, None
    return hyp, "HOLDS" if v1 == v2 == "HOLDS" else "FAILS"


def check23_expected(t) -> tuple[dict, object]:
    import sympy

    delta, n, m, k, l = t
    hyp = {"eq12": eq12(*t)}
    if not hyp["eq12"]:
        return hyp, None
    m0, k0 = max(m + delta, l // 2), 2 * (k + l) - delta - 1
    elements = [n - i for i in range(m, k)] + [n + i for i in range(m0 + 1, k + l + 1)]
    smooth = all(max(sympy.factorint(v), default=1) <= k0 for v in elements)
    return hyp, "HOLDS" if smooth else "FAILS"


def check31_expected(t, pi_mode: str) -> tuple[dict, object]:
    import sympy

    delta, n, m, k, l = t
    m0, k0 = max(m + delta, l // 2), 2 * (k + l) - delta - 1
    hyp = {"n_gt_k": n > k, "window_args": k - m >= 0 and l + k - m0 >= 0, "base_positive": 2 * k + l >= 1}
    if not all(hyp.values()):
        return hyp, None
    if k0 < 2:
        pi = mpf(0)
    elif pi_mode == "exact":
        pi = mpf(int(sympy.primepi(k0)))
    else:
        pi = dusart(mpf(k0))
    lhs = (2 * k + l - m - m0 - pi) * mpmath.log(n - k)
    rhs = pi * mpmath.log(2 * k + l) + mpmath.loggamma(k - m + 1) + mpmath.loggamma(l + k - m0 + 1)
    return hyp, expected_state(lhs, rhs, False)


def checker_problems(out: dict, f_star: int) -> list[str]:
    """Recompute every checker verdict of one checkers iteration."""
    problems: list[str] = []
    with mpmath.workdps(DPS):
        for t, checker, rep in out["tuples"]:
            label = f"{checker}{tuple(t)}"
            if checker == "check21":
                hyp, want = check21_expected(t)
            elif checker == "check23":
                hyp, want = check23_expected(t)
            else:
                hyp, want = check31_expected(t, checker.split(":")[1])
            problems += verdict_problem(label, rep["verdict"], want, rep["hypotheses"], hyp)

        n = 500000
        for k, rep in out["check22"]:
            value = mpf(k * k) / ((n - k) * mpmath.log(mpf("2.001") / (mpf("1.001") + mpf(k) / n)))
            want = expected_state(value, 1, True)
            problems += verdict_problem(f"check22(k={k})", rep["verdict"], want, rep["hypotheses"],
                                        {"scale": True, "k_range": 1 <= k < n})

        # 4.6623k - 1.8344 - log k > 1.0433k + 3.13k^(3/4) holds at k = 588 and
        # stays true above it: the difference has derivative
        # 3.619 - 1/k - 2.3475 k^(-1/4) > 3 for k >= 588.
        def s4(k):
            return (mpf("4.6623") * k - mpf("1.8344") - mpmath.log(k), mpf("1.0433") * k + mpf("3.13") * mpf(k) ** mpf("0.75"))

        lhs, rhs = s4(588)
        if not lhs > rhs:
            problems.append("section4: exact inequality fails at k = 588")
        ks = out["section4_ks"]
        for k, (got_k, got_lhs, got_rhs, contradiction) in zip(ks, out["section4"]):
            if got_k != k or contradiction is not (k >= 588):
                problems.append(f"section4(k={k}): contradiction = {contradiction}")
        for k in out["section4_sample"]:
            got_k, got_lhs, got_rhs, _ = out["section4"][k - ks[0]]
            lhs, rhs = s4(k)
            if abs(got_lhs - lhs) > mpf("1e-9") * abs(lhs) or abs(got_rhs - rhs) > mpf("1e-9") * abs(rhs):
                problems.append(f"section4(k={k}): sides {got_lhs!r}, {got_rhs!r} off the exact values")

        n, l0, state = out["section5"]
        lhs = (2 * n + mpf(l0)) ** (mpf(21) / 40) * mpmath.log(2 * n + mpf(l0))
        rhs = mpf("1.3132") * n - mpmath.log(n) / 2 - mpf("0.5359")
        if state != expected_state(lhs, rhs, True):
            problems.append(f"section5(n={n}): verdict {state}")

        thr = out["threshold32"]
        if not (lemma32(thr["f_star"]) >= 0 > lemma32(thr["f_star"] + 1)):
            problems.append(f"threshold32: no sign change at f_star = {thr['f_star']}")
        for F, (pi_lo, pi_hi), (e_lo, e_hi) in out["precise"]:
            pi, e = dusart(mpf(2 * F)), lemma32(F)
            if not (pi_lo <= pi <= pi_hi):
                problems.append(f"pi_upper_dusart({2 * F}, precise) misses {mpmath.nstr(pi, 20)}")
            if not (e_lo <= e <= e_hi) or (e >= 0) != (F <= f_star):
                problems.append(f"lemma32_expression({F}, precise) misses {mpmath.nstr(e, 20)}")

    want = [[str(v), [list(r) for r in reps]] for v, reps in KNOWN_COLLISIONS]
    if out["collisions"] != want:
        problems.append(f"enumerate_collisions(10**6) = {out['collisions']}")
    for value, reps in out["collisions"]:
        if any(math.comb(x, a) != int(value) for x, a in reps):
            problems.append(f"collision {value}: a representation does not evaluate to it")
    return problems
