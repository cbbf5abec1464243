"""Output checks: compact digests of numeric outputs and their comparison.

The reference stores, for every column of numbers a job produces, a digest:
its length, its counts of missing, zero and negative values, five sums that
a wrong value, a dropped row or two swapped rows each change (sum, sum of
magnitudes, root of the sum of squares, largest magnitude, and a sum
weighted by row position) and the sum of log|x| over the nonzero values.
A digest agrees with the reference when the counts are equal and every sum
is within RTOL of it, relative to the column's sum of magnitudes or to the
sum itself. Those sums are dominated by the largest values, and the spectra
span many decades, so the log sum is compared on an absolute scale instead:
within RTOL plus LOG_DRIFT per value. That is a relative test of every
value, the smallest included. Last-ulp changes in the program therefore
pass and any change a reader of the output could see fails. Headers, series
names and warning counts must match exactly.
"""

from __future__ import annotations

import json
import math

RTOL = 1e-9

# the shift of log|x| that every value of a column may share, so that a
# rounding bias of a few hundred ulps across 10^5 values still passes
LOG_DRIFT = 1e-13

TRACEBACK = "Traceback (most recent call last)"


def digest(values):
    """["digest", n, missing, zeros, negatives, sum, sum|x|, sqrt(sum x^2), max|x|,
    sum (i/n) x, sum log|x| over x != 0]."""
    xs = [float(v) for v in values if v is not None]
    n = len(values)
    pos = [(i / n) * float(v) for i, v in enumerate(values) if v is not None]
    return ["digest", n, n - len(xs), sum(x == 0.0 for x in xs), sum(x < 0.0 for x in xs),
            math.fsum(xs), math.fsum(abs(x) for x in xs),
            math.sqrt(math.fsum(x * x for x in xs)), max((abs(x) for x in xs), default=0.0),
            math.fsum(pos), math.fsum(math.log(abs(x)) for x in xs if x != 0.0)]


def _digest_mismatch(got, ref):
    if got[1:5] != ref[1:5]:
        return "length, missing, zero or negative count %s != %s" % (got[1:5], ref[1:5])
    scale = ref[6]
    for i, name in ((5, "sum"), (6, "sum|x|"), (7, "l2"), (8, "max|x|"), (9, "position sum")):
        base = scale if i in (5, 9) else abs(ref[i])
        if not abs(got[i] - ref[i]) <= RTOL * base:
            return "%s %r != %r" % (name, got[i], ref[i])
    if not abs(got[10] - ref[10]) <= RTOL + LOG_DRIFT * ref[1]:
        return "sum log|x| %r != %r" % (got[10], ref[10])
    return None


def mismatch(got, ref, where="output"):
    """None when `got` agrees with the reference `ref`, else the first difference."""
    if isinstance(ref, list) and ref[:1] == ["digest"]:
        if not (isinstance(got, list) and got[:1] == ["digest"]):
            return "%s: expected numbers" % where
        why = _digest_mismatch(got, ref)
        return None if why is None else "%s: %s" % (where, why)
    if isinstance(ref, dict):
        if not isinstance(got, dict) or sorted(got) != sorted(ref):
            return "%s: keys %s != %s" % (where, sorted(got) if isinstance(got, dict)
                                          else type(got).__name__, sorted(ref))
        for k in ref:
            why = mismatch(got[k], ref[k], "%s.%s" % (where, k))
            if why:
                return why
        return None
    if isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            return "%s: length differs" % where
        for i, (g, r) in enumerate(zip(got, ref)):
            why = mismatch(g, r, "%s[%d]" % (where, i))
            if why:
                return why
        return None
    return None if got == ref else "%s: %r != %r" % (where, got, ref)


def parse_csv(text):
    """(header line, columns) of a CSV written by cavityrad; "" reads as None."""
    lines = text.rstrip("\n").split("\n")
    rows = [line.split(",") for line in lines[1:]]
    ncol = len(lines[0].split(","))
    if any(len(r) != ncol for r in rows):
        raise ValueError("ragged CSV")
    return lines[0], [[float(r[i]) if r[i] else None for r in rows] for i in range(ncol)]


def digest_csv(text):
    """Header and per-column digests of a CSV written by cavityrad."""
    header, cols = parse_csv(text)
    return {"header": header, "columns": [digest(c) for c in cols]}


def digest_json(text):
    """Series names and digests plus the warning count of a JSON spectrum."""
    payload = json.loads(text)
    return {"series": [{"name": s["name"], "omega": digest(s["omega"]),
                        "values": digest(s["values"])} for s in payload["series"]],
            "warnings": len(payload["warnings"])}


def digest_text(text):
    """Digest of one output, CSV or JSON, picked by its first character."""
    return digest_json(text) if text.lstrip().startswith("{") else digest_csv(text)


def outcome_mismatch(expect, code, stderr):
    """Why an exit status or stderr breaks the job's contract, or None."""
    if code not in expect:
        return "exit code %s, expected %s" % (code, " or ".join(map(str, expect)))
    if TRACEBACK in stderr:
        return "traceback on stderr"
    return None


def self_test(values):
    """Show on real output that the checks catch corruption and pass ulp noise.

    `values` is one column of numbers the program produced in this pass. Returns
    a list of the checks that did not behave; empty means the checker works.
    """
    if all(v is None for v in values):
        return ["no numbers to test on"]
    ref = digest(values)
    big = max(range(len(values)), key=lambda i: -1.0 if values[i] is None else abs(values[i]))
    small = min((i for i, v in enumerate(values) if v), key=lambda i: abs(values[i]),
                default=None)
    problems = []

    def changed(i, new):
        out = list(values)
        out[i] = new
        return digest(out)

    if mismatch(changed(big, math.nextafter(values[big], math.inf)), ref) is not None:
        problems.append("a one-ulp change was counted as a failure")
    if mismatch(changed(big, values[big] * (1.0 + 1e-6)), ref) is None:
        problems.append("a 1e-6 relative change of the largest value passed")
    if small is not None:
        if mismatch(changed(small, math.nextafter(values[small], math.inf)), ref) is not None:
            problems.append("a one-ulp change of the smallest value was counted as a failure")
        if mismatch(changed(small, values[small] * (1.0 + 1e-6)), ref) is None:
            problems.append("a 1e-6 relative change of the smallest nonzero value passed")
        if mismatch(changed(small, 0.0), ref) is None:
            problems.append("the smallest nonzero value flushed to 0 passed")
    if mismatch(digest(values[:-1]), ref) is None:
        problems.append("a dropped row passed")
    distinct = [i for i, v in enumerate(values) if v is not None and v != values[big]]
    if distinct:
        swapped = list(values)
        j = distinct[0]
        swapped[big], swapped[j] = swapped[j], swapped[big]
        if mismatch(digest(swapped), ref) is None:
            problems.append("two swapped rows passed")
    if outcome_mismatch([0], 1, "") is None:
        problems.append("a wrong exit code passed")
    if outcome_mismatch([0], 0, TRACEBACK + "\n") is None:
        problems.append("a traceback on stderr passed")
    return problems
