"""Structured verdicts for property checks."""

from __future__ import annotations

import json

from .errors import RangeError, _Value

PASS = "pass"
FAIL = "fail"
SKIPPED = "skipped"


class CheckReport(_Value):
    """Outcome of running one named property on one instance.

    ``instance`` is a compact JSON rendering of the input.  A failing
    report always carries a witness dict whose ``instance`` entry is
    enough to replay the check; extra keys describe the offending data.
    A skipped report carries the reason instead.
    """

    _fields = ("property", "instance", "verdict", "reason", "witness")

    def __init__(
        self,
        property: str,
        instance: str,
        verdict: str,
        reason: str | None = None,
        witness: dict | None = None,
    ) -> None:
        object.__setattr__(self, "property", property)
        object.__setattr__(self, "instance", instance)
        object.__setattr__(self, "verdict", verdict)
        object.__setattr__(self, "reason", reason)
        object.__setattr__(self, "witness", witness)
        if self.verdict not in (PASS, FAIL, SKIPPED):
            raise RangeError(f"unknown verdict {self.verdict!r}")
        if self.verdict == FAIL and self.witness is None:
            raise RangeError("a failing report needs a witness")
        if self.verdict == SKIPPED and not self.reason:
            raise RangeError("a skipped report needs a reason")

    @property
    def ok(self) -> bool:
        return self.verdict != FAIL

    def to_json(self) -> str:
        payload = {"property": self.property, "instance": self.instance,
                   "verdict": self.verdict}
        if self.reason is not None:
            payload["reason"] = self.reason
        if self.witness is not None:
            payload["witness"] = self.witness
        return json.dumps(payload, sort_keys=True)


def instance_text(payload: dict) -> str:
    """Canonical one-line rendering used for the instance field."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def passed(prop: str, instance: dict) -> CheckReport:
    return CheckReport(prop, instance_text(instance), PASS)


def failed(prop: str, instance: dict, **detail) -> CheckReport:
    witness = {"instance": instance, **detail}
    return CheckReport(prop, instance_text(instance), FAIL, witness=witness)


def skipped(prop: str, instance: dict, reason: str) -> CheckReport:
    return CheckReport(prop, instance_text(instance), SKIPPED, reason=reason)
