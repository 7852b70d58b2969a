"""Timing wrappers for the traced benchmark run.

The wrappers are installed from outside the package, on the module and class
attributes its callers look up (``rares_sim.detector.classify``,
``DeviceState.sync_metadata``, ``rares_sim.scenario.apply_write``, ...), and
removed again after each traced unit, so untraced units run the program
exactly as shipped.

Every wrapped call adds to a per-name count, inclusive seconds and self
seconds (inclusive minus the time covered by wrapped calls it made).  Whole
calls (parse, run, to_dict, to_json, boot, reflash, attest, verify, CLI
main) are also kept as spans ``(id, parent_id, name, start, end)``; calls
made once per cycle are kept only as counts and busy seconds.
"""

from __future__ import annotations

from collections import defaultdict
from time import perf_counter


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])  # calls, total, self
        self.counts: dict[str, int] = defaultdict(int)
        self.spans: list[tuple] = []
        self.top_s = 0.0  # time inside outermost wrapped calls
        self._child_s: list[float] = []
        self._open_spans: list[int] = []
        self._next_id = 0
        self._patches: list[tuple] = []

    def clear(self) -> None:
        self.stats.clear()
        self.counts.clear()
        self.spans.clear()
        self.top_s = 0.0

    def wrap(self, owner, attr: str, name: str, span: bool = False, observe=None) -> None:
        original = getattr(owner, attr)
        child_s, open_spans, stats = self._child_s, self._open_spans, self.stats

        def traced(*args, **kwargs):
            if span:
                span_id = self._next_id
                self._next_id += 1
                parent = open_spans[-1] if open_spans else None
                open_spans.append(span_id)
            child_s.append(0.0)
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = perf_counter()
                dur = end - start
                st = stats[name]
                st[0] += 1
                st[1] += dur
                st[2] += dur - child_s.pop()
                if child_s:
                    child_s[-1] += dur
                else:
                    self.top_s += dur
                if span:
                    open_spans.pop()
                    self.spans.append((span_id, parent, name, start, end))
            if observe is not None:
                observe(self.counts, args, result)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def unwrap(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


def _rows(counts, args, report):
    counts["scenario.rows"] += len(report.rows)


def _report_bytes(counts, args, text):
    counts["scenario.report_bytes"] += len(text.encode())


def _matched(counts, args, violations):
    counts["detector.matched"] += bool(violations)


def _applied(counts, args, result):
    counts["memory.write_applied"] += result.value == "applied"


def _actions(counts, args, records):
    for rec in records:
        counts["prevention.applied" if rec.applied else "prevention.subsumed"] += 1


def _hmac_bytes(counts, args, tag):
    counts["attestation.hmac_bytes"] += len(args[1])


def install(tracer: Tracer, pkg) -> None:
    """Wrap every layer boundary of the rares_sim modules in `pkg`."""
    sc, det, mem, att, boot, cli = pkg.scenario, pkg.detector, pkg.memory, pkg.attestation, pkg.secureboot, pkg.cli
    w = tracer.wrap
    w(sc, "parse_scenario", "scenario.parse", span=True)
    for mod in (sc, cli):
        w(mod, "run", "scenario.run", span=True, observe=_rows)
        w(mod, "fsbl_boot", "secureboot.boot", span=True)
    w(sc.RunReport, "to_dict", "scenario.to_dict", span=True)
    w(sc.RunReport, "to_json", "scenario.to_json", span=True, observe=_report_bytes)
    w(det, "step", "detector.step", observe=_matched)
    w(det, "classify", "detector.classify")
    w(det, "pox_observe", "attestation.pox_observe")
    w(mem.DeviceState, "sync_metadata", "memory.sync_metadata")
    w(mem.DeviceState, "region_digests", "memory.region_digests", span=True)
    w(sc, "apply_write", "memory.apply_write", observe=_applied)
    w(sc, "apply_prevention", "prevention.apply", observe=_actions)
    for mod in (sc, boot):
        w(mod, "reflash", "secureboot.reflash", span=True)
    for mod in (sc, att, boot):
        w(mod, "hmac_sha256", "attestation.hmac", observe=_hmac_bytes)
    for mod in (sc, att):
        w(mod, "attest", "attestation.attest", span=True)
    for mod in (att, cli):
        w(mod, "verify_report", "attestation.verify", span=True)
    for fn in ("encode_request", "decode_request", "encode_report", "decode_report",
               "write_frame", "read_frame"):
        w(att, fn, "attestation.codec")
    w(att, "serve_request", "attestation.serve", span=True)
    w(cli, "main", "cli.main", span=True)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer figures of one traced unit (seconds are inclusive unless
    the name says self)."""
    stats, counts = tracer.stats, tracer.counts

    def calls(name):
        return stats[name][0] if name in stats else 0

    def total(name):
        return stats[name][1] if name in stats else 0.0

    def self_s(name):
        return stats[name][2] if name in stats else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    steps, writes = calls("detector.step"), calls("memory.apply_write")
    return {
        "scenario.parse_s": total("scenario.parse"),
        "scenario.run_s": total("scenario.run"),
        "scenario.run_self_s": self_s("scenario.run"),
        "scenario.to_dict_s": total("scenario.to_dict"),
        "scenario.dumps_s": self_s("scenario.to_json"),
        "scenario.rows": counts["scenario.rows"],
        "scenario.report_bytes": counts["scenario.report_bytes"],
        "detector.step_calls": steps,
        "detector.step_self_s": self_s("detector.step"),
        "detector.classify_s": total("detector.classify"),
        "detector.match_ratio": ratio(counts["detector.matched"], steps),
        "memory.sync_metadata_calls": calls("memory.sync_metadata"),
        "memory.sync_metadata_s": total("memory.sync_metadata"),
        "memory.apply_write_calls": writes,
        "memory.apply_write_s": total("memory.apply_write"),
        "memory.write_applied_ratio": ratio(counts["memory.write_applied"], writes),
        "memory.region_digests_s": total("memory.region_digests"),
        "prevention.apply_calls": calls("prevention.apply"),
        "prevention.apply_s": total("prevention.apply"),
        "prevention.actions_applied": counts["prevention.applied"],
        "prevention.actions_subsumed": counts["prevention.subsumed"],
        "secureboot.boot_calls": calls("secureboot.boot"),
        "secureboot.boot_s": total("secureboot.boot"),
        "secureboot.reflash_calls": calls("secureboot.reflash"),
        "secureboot.reflash_s": total("secureboot.reflash"),
        "attestation.hmac_calls": calls("attestation.hmac"),
        "attestation.hmac_bytes": counts["attestation.hmac_bytes"],
        "attestation.hmac_s": total("attestation.hmac"),
        "attestation.attest_s": total("attestation.attest"),
        "attestation.verify_s": total("attestation.verify"),
        "attestation.codec_s": total("attestation.codec"),
        "attestation.pox_observe_s": total("attestation.pox_observe"),
        "cli.main_s": total("cli.main"),
    }
