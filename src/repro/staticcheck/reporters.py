"""Render check results as text, machine JSON, or SARIF 2.1.0."""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Sequence

from repro.staticcheck.core import CheckResult, Finding, Rule, all_rules

#: Canonical SARIF 2.1.0 schema location (GitHub code scanning input).
SARIF_SCHEMA_URI = ("https://raw.githubusercontent.com/oasis-tcs/"
                    "sarif-spec/master/Schemata/sarif-schema-2.1.0.json")
SARIF_VERSION = "2.1.0"

TOOL_NAME = "greedwork-check"
TOOL_URI = "https://github.com/greedwork/greedwork"


def render_text(result: CheckResult, verbose: bool = False) -> str:
    """GCC-style ``path:line:col: RULE message`` lines plus a summary."""
    lines: List[str] = [f.render() for f in
                        sorted(result.findings, key=lambda f: f.sort_key())]
    if verbose and result.suppressed:
        lines.append("")
        lines.append("suppressed:")
        lines.extend("  " + f.render() for f in
                     sorted(result.suppressed,
                            key=lambda f: f.sort_key()))
    noun = "finding" if len(result.findings) == 1 else "findings"
    summary = (f"{len(result.findings)} {noun} "
               f"({len(result.suppressed)} suppressed) "
               f"in {result.files_checked} file(s)")
    if result.files_from_cache:
        summary += (f" [{result.files_analyzed} analyzed, "
                    f"{result.files_from_cache} cached]")
    lines.append(summary)
    return "\n".join(lines)


def render_stats(result: CheckResult) -> str:
    """One-line run statistics (for humans and CI timing gates)."""
    return (f"files={result.files_checked} "
            f"analyzed={result.files_analyzed} "
            f"cached={result.files_from_cache} "
            f"findings={len(result.findings)} "
            f"suppressed={len(result.suppressed)} "
            f"project_analyzed={int(result.project_analyzed)} "
            f"duration_s={result.duration_s:.3f}")


def render_json(result: CheckResult) -> str:
    """Stable JSON document for tooling (CI annotations, dashboards)."""
    def encode(findings: Sequence[Finding]) -> List[Dict[str, object]]:
        return [f.to_dict() for f in
                sorted(findings, key=lambda f: f.sort_key())]

    payload = {
        "ok": result.ok,
        "files_checked": result.files_checked,
        "files_analyzed": result.files_analyzed,
        "files_from_cache": result.files_from_cache,
        "duration_s": round(result.duration_s, 6),
        "findings": encode(result.findings),
        "suppressed": encode(result.suppressed),
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def render_sarif(result: CheckResult,
                 rules: Optional[Sequence[Rule]] = None) -> str:
    """SARIF 2.1.0 document for GitHub code scanning.

    Active findings become ``results`` at level ``error``; suppressed
    findings are included with an ``inSource`` suppression, so the
    code scanning UI can tell live findings from justified ones.
    """
    rule_objs = list(rules) if rules is not None else all_rules()
    driver_rules = [
        {
            "id": rule.rule_id,
            "name": _camel(rule.name),
            "shortDescription": {"text": rule.name},
            "fullDescription": {"text": rule.description},
            "defaultConfiguration": {"level": "error"},
        }
        for rule in sorted(rule_objs, key=lambda r: r.rule_id)
    ]
    rule_index = {entry["id"]: i for i, entry in enumerate(driver_rules)}

    def sarif_result(finding: Finding,
                     suppression: Optional[str]) -> Dict[str, object]:
        entry: Dict[str, object] = {
            "ruleId": finding.rule_id,
            "level": "error",
            "message": {"text": finding.message},
            "locations": [{
                "physicalLocation": {
                    "artifactLocation": {
                        "uri": finding.path.replace("\\", "/"),
                        "uriBaseId": "SRCROOT",
                    },
                    "region": {
                        "startLine": max(finding.line, 1),
                        "startColumn": max(finding.col, 1),
                    },
                },
            }],
            "partialFingerprints": {
                "greedworkFingerprint/v1": finding.fingerprint(),
            },
        }
        if finding.rule_id in rule_index:
            entry["ruleIndex"] = rule_index[finding.rule_id]
        if suppression is not None:
            entry["suppressions"] = [{"kind": suppression}]
        return entry

    results = (
        [sarif_result(f, None) for f in result.findings]
        + [sarif_result(f, "inSource") for f in result.suppressed]
    )
    run: Dict[str, object] = {
        "tool": {
            "driver": {
                "name": TOOL_NAME,
                "informationUri": TOOL_URI,
                "rules": driver_rules,
            },
        },
        "columnKind": "unicodeCodePoints",
        "originalUriBaseIds": {
            "SRCROOT": {"description": {
                "text": "repository root at analysis time"}},
        },
        "results": results,
    }
    document = {
        "$schema": SARIF_SCHEMA_URI,
        "version": SARIF_VERSION,
        "runs": [run],
    }
    return json.dumps(document, indent=2)


def _camel(name: str) -> str:
    """``layer-dag`` -> ``LayerDag`` (SARIF rule names are PascalCase)."""
    return "".join(part.capitalize() for part in name.split("-"))
