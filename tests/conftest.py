"""Shared fixture data: the three worked CVE examples used across the suite.

Vectors and descriptions are the published NVD values for these CVEs; the
expected base scores were verified by hand against the v3.1 formula before
being frozen here.
"""

from decimal import Decimal

import pytest

from vulnrank.feeds import compact_json, iter_label_rows

CVE_SMB = {
    "id": "CVE-2017-0143",
    "vector": "CVSS:3.1/AV:N/AC:H/PR:N/UI:N/S:U/C:H/I:H/A:H",
    "score": Decimal("8.1"),
    "severity": "High",
    "wx": 26,
    "utility": 2,
    "opportune": 0,
    "threat": "102.3",
    "description": (
        "The SMBv1 server in Microsoft Windows Vista SP2; Windows Server 2008 SP2 "
        "and R2 SP1; Windows 7 SP1; Windows 8.1; Windows Server 2012 Gold and R2; "
        "Windows RT 8.1; and Windows 10 Gold, 1511, and 1607; and Windows Server "
        "2016 allows remote attackers to execute arbitrary code via crafted "
        'packets, aka "Windows SMB Remote Code Execution Vulnerability."'
    ),
}

CVE_URLLIB3 = {
    "id": "CVE-2019-11324",
    "vector": "CVSS:3.1/AV:N/AC:L/PR:N/UI:N/S:U/C:H/I:N/A:N",
    "score": Decimal("7.5"),
    "severity": "High",
    "wx": 2,
    "utility": 0,
    "opportune": 0,
    "threat": "9.5",
    "description": (
        "The urllib3 library before 1.24.2 for Python mishandles certain cases "
        "where the desired set of CA certificates is different from the OS store "
        "of CA certificates, which results in SSL connections succeeding in "
        "situations where a verification failure is the correct outcome. This is "
        "related to use of the ssl_context, ca_certs, or ca_certs_dir argument."
    ),
}

CVE_PUMP = {
    "id": "CVE-2020-27256",
    "vector": "CVSS:3.1/AV:P/AC:L/PR:N/UI:N/S:U/C:H/I:H/A:H",
    "score": Decimal("6.8"),
    "severity": "Medium",
    "wx": 0,
    "utility": 2,
    "opportune": 1,
    "threat": "40.8",
    "description": (
        "In SOOIL Developments Co., Ltd Diabecare RS, AnyDana-i and AnyDana-A, a "
        "hard-coded physician PIN in the physician menu of the insulin pump "
        "allows attackers with physical access to change insulin therapy settings."
    ),
}

WORKED_TRIO = (CVE_SMB, CVE_URLLIB3, CVE_PUMP)


def read_store(path) -> list:
    """Every ``(cve_id, judgment, ts)`` row of a label store, superseded
    ones included, in file order."""
    return list(iter_label_rows(path))


def write_jsonl(path, rows):
    """Write one JSON object per line, as ``compact_json`` writes it;
    returns the path."""
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(compact_json(row) + "\n")
    return path


def trio_cve_rows():
    return [
        {"id": rec["id"], "description": rec["description"], "vector": rec["vector"]}
        for rec in WORKED_TRIO
    ]


def trio_ref_rows():
    """Exploit reference feed reproducing the worked WX counts."""
    rows = []
    for rec in WORKED_TRIO:
        for n in range(rec["wx"]):
            rows.append(
                {
                    "cve": rec["id"],
                    "url": f"https://www.exploit-db.com/exploits/{rec['id']}-{n}",
                    "source": "ExploitDB",
                    "exploit": True,
                }
            )
    return rows


def trio_label_rows(labeler="SME", ts="2021-06-01T00:00:00Z"):
    return [
        {
            "cve": rec["id"],
            "utility": rec["utility"],
            "opportune": rec["opportune"],
            "labeler": labeler,
            "ts": ts,
        }
        for rec in WORKED_TRIO
    ]


@pytest.fixture
def trio_feed_dir(tmp_path):
    """Directory holding the worked-example CVE, reference, and label feeds."""
    write_jsonl(tmp_path / "cves.jsonl", trio_cve_rows())
    write_jsonl(tmp_path / "refs.jsonl", trio_ref_rows())
    write_jsonl(tmp_path / "labels.jsonl", trio_label_rows())
    return tmp_path
