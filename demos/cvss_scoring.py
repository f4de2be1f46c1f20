"""Walkthrough: CVSS v3.1 vectors, base scores, and severity bands.

Parses a handful of real NVD vectors, scores them, shows how rounding
and the severity map behave, and sweeps the whole vector space to show
the score distribution.
"""

from collections import Counter

from vulnrank import base_score, parse_vector, severity_of
from vulnrank.cvss import MissingMetric, UnknownMetricValue, iter_vectors, round_up

# Three production vectors, straight from NVD.
VECTORS = {
    "CVE-2017-0143 (SMBv1 RCE)": "CVSS:3.1/AV:N/AC:H/PR:N/UI:N/S:U/C:H/I:H/A:H",
    "CVE-2019-11324 (urllib3 cert validation)": "CVSS:3.1/AV:N/AC:L/PR:N/UI:N/S:U/C:H/I:N/A:N",
    "CVE-2020-27256 (insulin pump PIN)": "CVSS:3.1/AV:P/AC:L/PR:N/UI:N/S:U/C:H/I:H/A:H",
}

print("== scoring real vectors ==")
for name, text in VECTORS.items():
    vector = parse_vector(text)
    score = base_score(vector)
    print(f"{name}")
    print(f"  {vector.to_string()}")
    print(f"  base score {score} ({severity_of(score).value})")

# The prefix is optional on input; serialization always emits it.
short = parse_vector("AV:N/AC:L/PR:N/UI:N/S:U/C:H/I:H/A:H")
print(f"\nprefixless parse round-trips to: {short.to_string()}")
print(f"classic network RCE scores {base_score(short)}")

# Scores always round UP to one decimal: 8.0943 becomes 8.1, never 8.0.
print(f"\nround_up(8.0943) = {round_up(8.0943)}")
print(f"round_up(4.02)   = {round_up(4.02)}")

# Malformed vectors are rejected loudly, never guessed at.
print("\n== rejection examples ==")
for bad in ("CVSS:3.1/AV:N/AC:L", "AV:X/AC:L/PR:N/UI:N/S:U/C:H/I:H/A:H"):
    try:
        parse_vector(bad)
    except (MissingMetric, UnknownMetricValue) as exc:
        print(f"{bad!r}\n  -> {type(exc).__name__}: {exc}")

# All 2,592 possible base vectors, bucketed by severity.
print("\n== severity distribution over the full vector space ==")
bands = Counter(severity_of(base_score(v)).value for v in iter_vectors())
for band in ("None", "Low", "Medium", "High", "Critical"):
    print(f"{band:>8}: {bands[band]:>5}")
