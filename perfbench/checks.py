"""Output checks that recompute every expected value from the generator's truth.

Nothing here calls vulnrank to decide what is right: CVSS base scores
come from an independent transcription of the v3.1 formula, threat
scores are recomputed in Decimal, and ranks, bands, tiers and overlaps
are rebuilt from the truth the generator recorded. Each check returns a
list of problems; an empty list means the output is correct.
"""

from __future__ import annotations

import json
import math
import re
from decimal import Decimal

from feedgen import Truth

TIER_BOUNDS = (64, 32, 16, 8)
TOP_K = (10, 100, 1000)
# Held-out micro-F was 1.0000 on every seed at the commit that introduced
# this benchmark; its predictions cleared the agreement floor on every seed.
MICRO_F_FLOOR = 0.95
PREDICTION_AGREEMENT_FLOOR = 0.95

_WEIGHTS = {
    "AV": {"N": 0.85, "A": 0.62, "L": 0.55, "P": 0.2},
    "AC": {"L": 0.77, "H": 0.44},
    "UI": {"N": 0.85, "R": 0.62},
    "CIA": {"H": 0.56, "L": 0.22, "N": 0.0},
}
_PR = {"U": {"N": 0.85, "L": 0.62, "H": 0.27}, "C": {"N": 0.85, "L": 0.68, "H": 0.5}}


def _roundup_tenths(value: float) -> int:
    # The specification's Roundup, returning integer tenths.
    scaled = round(value * 100000)
    return scaled // 10000 if scaled % 10000 == 0 else math.floor(scaled / 10000) + 1


def cvss_tenths(vector: str) -> int:
    """CVSS v3.1 base score of a vector, in tenths, per the specification."""
    m = dict(token.split(":") for token in vector.split("/")[1:])
    cia = _WEIGHTS["CIA"]
    iss = 1 - (1 - cia[m["C"]]) * (1 - cia[m["I"]]) * (1 - cia[m["A"]])
    if m["S"] == "U":
        impact = 6.42 * iss
    else:
        impact = 7.52 * (iss - 0.029) - 3.25 * (iss - 0.02) ** 15
    exploitability = (8.22 * _WEIGHTS["AV"][m["AV"]] * _WEIGHTS["AC"][m["AC"]]
                      * _PR[m["S"]][m["PR"]] * _WEIGHTS["UI"][m["UI"]])
    if impact <= 0:
        return 0
    if m["S"] == "U":
        return _roundup_tenths(min(impact + exploitability, 10))
    return _roundup_tenths(min(1.08 * (impact + exploitability), 10))


def severity(tenths: int) -> str:
    if tenths == 0:
        return "None"
    if tenths <= 39:
        return "Low"
    if tenths <= 69:
        return "Medium"
    if tenths <= 89:
        return "High"
    return "Critical"


def expected_rows(truth: Truth) -> dict[str, dict]:
    """The row every CVE must get, independent of rank position."""
    memo: dict[str, int] = {}
    rows = {}
    for cve in truth.ids:
        cvss = truth.cvss[cve]
        if isinstance(cvss, str):
            if cvss not in memo:
                memo[cvss] = cvss_tenths(cvss)
            tenths = memo[cvss]
        else:
            tenths = cvss
        utility, opportune, labeler = truth.labels[cve]
        wx = truth.wx.get(cve, 0)
        env = truth.env.get(cve, Decimal(1))
        rows[cve] = {
            "tenths": tenths,
            "wx": wx,
            "utility": utility,
            "opportune": opportune,
            "labeler": labeler,
            "env": env,
            "threat": (Decimal(tenths) / 10 + wx) * (utility + 1) * (opportune + 1) * env,
        }
    return rows


def _order_key(threat: Decimal, tenths: int, cve: str):
    return (-threat, -tenths, cve)


def _check_rows(rows: list[dict], expected: dict[str, dict]) -> list[str]:
    """Rows as parsed from any portfolio export; fields are strings or ints."""
    problems = []
    if len(rows) != len(expected):
        problems.append(f"{len(rows)} rows for {len(expected)} CVEs")
    seen = set()
    previous = None
    for pos, row in enumerate(rows, start=1):
        cve = row["cve_id"]
        if cve in seen:
            problems.append(f"{cve}: listed twice")
        seen.add(cve)
        if int(row["rank"]) != pos:
            problems.append(f"{cve}: rank {row['rank']} at position {pos}")
        cvss = Decimal(row["cvss"])
        threat = Decimal(row["threat_score"])
        wx, utility, opportune = int(row["wx"]), int(row["utility"]), int(row["opportune"])
        env = Decimal(row["env_product"])
        if threat != (cvss + wx) * (utility + 1) * (opportune + 1) * env:
            problems.append(f"{cve}: threat {threat} does not follow from its own row")
        want = expected.get(cve)
        if want is None:
            problems.append(f"{cve}: not in the feed")
        else:
            got = (int(cvss * 10), wx, utility, opportune, row["label_source"], env, row["severity"])
            wanted = (want["tenths"], want["wx"], want["utility"], want["opportune"],
                      want["labeler"], want["env"], severity(want["tenths"]))
            if got != wanted:
                problems.append(f"{cve}: (cvss, wx, utility, opportune, source, env, severity) "
                                f"is {got}, expected {wanted}")
        key = _order_key(threat, int(cvss * 10), cve)
        if previous is not None and key <= previous:
            problems.append(f"{cve}: out of order at position {pos}")
        previous = key
        if len(problems) > 20:
            break
    missing = set(expected) - seen
    if missing and len(problems) <= 20:
        problems.append(f"{len(missing)} CVEs missing, e.g. {sorted(missing)[0]}")
    return problems


def check_score_jsonl(data: bytes, expected: dict[str, dict]) -> list[str]:
    try:
        rows = [json.loads(line) for line in data.decode("utf-8").splitlines()]
    except ValueError as exc:
        return [f"unparsable json-lines: {exc}"]
    return _check_rows(rows, expected)


TEXT_COLUMNS = ("rank", "cve_id", "threat_score", "cvss", "severity", "wx",
                "utility", "opportune", "env_product", "label_source")


def check_rank_text(data: bytes, expected: dict[str, dict]) -> list[str]:
    lines = data.decode("utf-8").splitlines()
    if not lines or lines[0].split()[:2] != ["rank", "cve_id"]:
        return ["text ranking lacks its header"]
    rows = []
    for line in lines[1:]:
        fields = line.split()
        if len(fields) != len(TEXT_COLUMNS):
            return [f"malformed text row {line!r}"]
        rows.append(dict(zip(TEXT_COLUMNS, fields)))
    return _check_rows(rows, expected)


def _expected_report(expected: dict[str, dict]) -> dict:
    bands = {band: 0 for band in range(10, 0, -1)}
    tiers = [0] * (len(TIER_BOUNDS) + 1)
    for row in expected.values():
        bands[max(1, (row["tenths"] + 9) // 10)] += 1
        tier = next((i for i, b in enumerate(TIER_BOUNDS) if row["threat"] >= b), len(TIER_BOUNDS))
        tiers[tier] += 1
    by_threat = sorted(expected, key=lambda c: _order_key(expected[c]["threat"], expected[c]["tenths"], c))
    by_cvss = sorted(expected, key=lambda c: (-expected[c]["tenths"], c))
    overlap = {}
    for k in TOP_K:
        if k <= len(expected):
            a, b = set(by_threat[:k]), set(by_cvss[:k])
            overlap[k] = f"{len(a & b) / len(a | b):.4f}"
    return {
        "total": len(expected),
        "bands": bands,
        "tiers": tiers,
        "critical": sum(1 for row in expected.values() if row["tenths"] >= 90),
        "overlap": overlap,
    }


_BAND_RE = re.compile(r"^(\d+)-(\d+)\s+(\d+)")


def check_report_text(data: bytes, expected: dict[str, dict]) -> list[str]:
    want = _expected_report(expected)
    bands, tiers, overlap = {}, [], {}
    total = critical = None
    for line in data.decode("utf-8").splitlines():
        left, _, right = line.partition("|")
        match = _BAND_RE.match(left)
        if match:
            bands[int(match.group(2))] = int(match.group(3))
        if right.strip() and not right.split()[0] == "threat":
            tiers.append(int(right.split()[-1]))
        if line.startswith("total: "):
            total = int(line.split()[-1])
        elif line.startswith("critical "):
            critical = int(line.split()[-1])
        elif line.startswith("top-"):
            overlap[int(line[4:].split()[0])] = line.split()[-1]
    problems = []
    if total != want["total"]:
        problems.append(f"total {total}, expected {want['total']}")
    if sum(bands.values()) != want["total"] or sum(tiers) != want["total"]:
        problems.append(f"bands sum to {sum(bands.values())} and tiers to {sum(tiers)}, "
                        f"not the total {want['total']}")
    got = {"bands": bands, "tiers": tiers, "critical": critical, "overlap": overlap}
    for name, value in got.items():
        if value != want[name]:
            problems.append(f"{name} {value}, expected {want[name]}")
    return problems


_MICRO_F_RE = re.compile(r"^micro-F (\d+\.\d+)", re.M)


def check_train(stdout: str, model_path, task: str) -> list[str]:
    match = _MICRO_F_RE.search(stdout)
    if match is None:
        return ["train printed no micro-F"]
    problems = []
    if float(match.group(1)) < MICRO_F_FLOOR:
        problems.append(f"held-out micro-F {match.group(1)} below the floor {MICRO_F_FLOOR}")
    # Reloading is the program's own job; this asks only that it can.
    from vulnrank.triage.modelio import load_model

    try:
        model = load_model(model_path)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return problems + [f"{model_path} does not reload: {exc!r}"]
    if model.task.value != task:
        problems.append(f"{model_path} reloads as a {model.task.value} model")
    return problems


def check_label_store(data: bytes, truth: Truth, tasks_done: tuple[str, ...]) -> list[str]:
    """The store after predict: SME lines untouched, Model lines for exactly
    the unlabeled CVEs, carrying predictions for ``tasks_done``."""
    try:
        rows = [json.loads(line) for line in data.decode("utf-8").splitlines()]
    except ValueError as exc:
        return [f"unparsable label store: {exc}"]
    problems = []
    sme = [row for row in rows if row.get("labeler") == "SME"]
    if sme != truth.sme_lines:
        problems.append("SME entries did not come back unchanged")
    model = {row["cve"]: row for row in rows if row.get("labeler") == "Model"}
    if len(model) + len(sme) != len(rows):
        problems.append("store holds entries that are neither SME nor Model")
    if set(model) != truth.unlabeled:
        problems.append(f"predictions cover {len(model)} CVEs, not the {len(truth.unlabeled)} "
                        f"without SME labels")
        return problems
    for task, column, legal in (("utility", 0, (0, 1, 2)), ("opportune", 1, (0, 1))):
        values = [row[task] for row in model.values()]
        if any(v not in legal for v in values):
            problems.append(f"{task} predictions outside {legal}")
        elif task in tasks_done:
            agree = sum(row[task] == truth.true_labels[cve][column] for cve, row in model.items())
            share = agree / len(model)
            if share < PREDICTION_AGREEMENT_FLOOR:
                problems.append(f"{task} predictions agree with the planted label on "
                                f"{share:.4f}, below {PREDICTION_AGREEMENT_FLOOR}")
    return problems
