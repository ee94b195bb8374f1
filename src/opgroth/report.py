"""Check reports shared by every validator in the package.

A report is a flat list of records plus instance counters.  An empty
record list means the checked laws all hold.  Records carry one of two
severities: ``structural`` for malformed tables (missing entries, out of
range indices, dangling references) and ``violation`` for a law that is
stated on well-formed data and fails.
"""

from __future__ import annotations

from dataclasses import dataclass, field

REPORT_SCHEMA_VERSION = 1

STRUCTURAL = "structural"
VIOLATION = "violation"


@dataclass(frozen=True)
class CheckRecord:
    severity: str
    check: str
    witness: str
    where: str = ""

    def as_json(self) -> dict:
        return {
            "v": REPORT_SCHEMA_VERSION,
            "severity": self.severity,
            "check": self.check,
            "witness": self.witness,
            "where": self.where,
        }

    def render(self) -> str:
        loc = f" [{self.where}]" if self.where else ""
        return f"{self.severity}: {self.check}: {self.witness}{loc}"


@dataclass
class CheckReport:
    records: list[CheckRecord] = field(default_factory=list)
    stats: dict[str, int] = field(default_factory=dict)
    info: dict[str, str] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.records

    @property
    def has_structural(self) -> bool:
        return any(r.severity == STRUCTURAL for r in self.records)

    def structural(self, check: str, witness: str, where: str = "") -> None:
        self.records.append(CheckRecord(STRUCTURAL, check, witness, where))

    def violation(self, check: str, witness: str, where: str = "") -> None:
        self.records.append(CheckRecord(VIOLATION, check, witness, where))

    def count(self, key: str, n: int = 1) -> None:
        self.stats[key] = self.stats.get(key, 0) + n

    def merge(self, other: "CheckReport", where: str = "") -> None:
        for r in other.records:
            loc = r.where if not where else (f"{where}:{r.where}" if r.where else where)
            self.records.append(CheckRecord(r.severity, r.check, r.witness, loc))
        for k, v in other.stats.items():
            self.count(k, v)
        self.info.update(other.info)

    def render(self) -> str:
        lines = [r.render() for r in self.records]
        lines.append("status: " + ("ok" if self.ok else "failed"))
        for k in sorted(self.stats):
            lines.append(f"count {k} = {self.stats[k]}")
        for k in sorted(self.info):
            lines.append(f"note {k} = {self.info[k]}")
        return "\n".join(lines)


# A round trip threads one ``memo`` dict through its constructions and
# checks, and drops it when it returns.  Each entry holds the objects
# whose id() its key names, so no object built later in the call can take
# one of those ids and receive another object's result.


def _memoized(memo: dict | None, key: tuple, keep, build):
    """``build()``, run once per key while ``memo`` lives; the entry holds
    ``keep``, the objects whose id() the key names.  Without a memo,
    ``build()`` runs at every call."""
    if memo is None:
        return build()
    entry = memo.get(key)
    if entry is None:
        entry = memo[key] = (keep, build())
    return entry[1]


def require_ok(report: CheckReport, what: str) -> None:
    """Raise when a precondition report is non-empty."""
    if not report.ok:
        raise ValueError(f"{what} does not validate:\n{report.render()}")
