"""Regenerate the L^q embedding truth table fixture.

The decision logic below is a deliberately independent, straight-line
transcription of the five sufficient conditions, written apart from
``studies.lq_embedding_case``, which test_multipliers checks against the
table it writes; anchor rows in test_multipliers verify it by hand.

Run:  python tests/make_lq_fixture.py
"""

import json
import math
import os

D_VALUES = [2, 3]
S_VALUES = [0.0, 0.25, 0.5, 0.75, 1.0]
Q_VALUES = [1.0, 1.5, 2.0, math.inf]


def reference_case(d, s1, s2, q):
    k1 = 2.0 * s1 / (d - 1)
    k2 = 2.0 * s2 / (d - 1)
    q_i = (d - 1) / (s1 + s2) if s1 + s2 > 0 else math.inf
    if k1 < 1 and k2 < 1:
        if q >= q_i:
            return "i"
    if k1 <= 1 and k2 <= 1 and (k1 == 1 or k2 == 1):
        if q > q_i:
            return "ii"
    lo, hi = min(k1, k2), max(k1, k2)
    if lo < 1 and hi > 1:
        q_iii = 2.0 * (d - 1) / (d - 1 + 2.0 * min(s1, s2))
        if q == q_iii:
            return "iii"
    if k1 + k2 > 2 and (k1 == 1 or k2 == 1):
        if q > 1:
            return "iv"
    if k1 > 1 and k2 > 1 and q == 1:
        return "v"
    return "none"


def build_table():
    rows = []
    for d in D_VALUES:
        for s1 in S_VALUES:
            for s2 in S_VALUES:
                for q in Q_VALUES:
                    rows.append({"d": d, "s1": s1, "s2": s2,
                                 "q": "inf" if math.isinf(q) else q,
                                 "case": reference_case(d, s1, s2, q)})
    return rows


if __name__ == "__main__":
    rows = build_table()
    assert len(rows) == 200
    path = os.path.join(os.path.dirname(__file__), "fixtures", "lq_reference.json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        json.dump(rows, f, indent=1)
    print(f"wrote {len(rows)} rows to {path}")
