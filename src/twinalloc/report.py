"""Metric serialization: CSV tables, the comparison SVG chart, run manifests.

All output is UTF-8 with LF line endings and fully determined by the run
results, so identical runs produce byte-identical files.
"""

from __future__ import annotations

import csv
import hashlib
import io
import itertools
import json

import numpy as np

from .core import DEFAULT_MAX_DEVIATION, ScenarioConfig
from .engine import SimResult, scenario_to_dict
from .manager import PolicyKind

CSV_HEADER = ("tick", "policy", "residual_inf", "mean_regret", "max_regret",
              "realloc_cumulative")

# fill/stroke per policy, fixed by enum declaration order
_POLICY_COLORS = {
    PolicyKind.EQUAL: "#1f77b4",
    PolicyKind.STATIC: "#ff7f0e",
    PolicyKind.EVENT_TRIGGERED: "#2ca02c",
    PolicyKind.ONLINE_DYNAMIC: "#d62728",
}
_POLICY_LABELS = {
    PolicyKind.EQUAL: "equal split",
    PolicyKind.STATIC: "static",
    PolicyKind.EVENT_TRIGGERED: "event-triggered",
    PolicyKind.ONLINE_DYNAMIC: "online dynamic",
}


def metrics_rows(result: SimResult) -> list[tuple]:
    """Per-tick metric rows for one run, in CSV column order."""
    regret = result.regret_series
    realloc = np.zeros(result.n_ticks, dtype=np.int64)
    realloc[list(result.reallocation_ticks)] = 1
    return list(zip(range(result.n_ticks),
                    itertools.repeat(result.policy.value),
                    result.residual_inf_series.tolist(),
                    regret.mean(axis=1).tolist(),
                    np.abs(regret).max(axis=1).tolist(),
                    np.cumsum(realloc).tolist()))


def _csv_body(rows) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


_CSV_HEADER_LINE = ",".join(CSV_HEADER) + "\n"


def render_metrics_csv(rows) -> str:
    """CSV text for rows built by metrics_rows, under the header."""
    return _CSV_HEADER_LINE + _csv_body(rows)


def write_metrics_csv(path, table) -> str:
    """Write the header and a table, rows built by metrics_rows or a body
    returned here before; return the body, so each table renders once."""
    body = table if isinstance(table, str) else _csv_body(table)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(_CSV_HEADER_LINE + body)
    return body


def render_comparison_svg(results: dict[PolicyKind, SimResult],
                          config: ScenarioConfig) -> str:
    """800x500 line chart: residual per tick per policy, shaded deviation
    band, dashed post-prefix mean lines."""
    width, height = 800, 500
    left, right, top, bottom = 65, 15, 40, 55
    plot_w = width - left - right
    plot_h = height - top - bottom
    n_ticks = next(iter(results.values())).n_ticks
    prefix = config.stationary_prefix

    y_max = max(max(float(r.residual_inf_series.max()) for r in results.values()),
                DEFAULT_MAX_DEVIATION) * 1.08
    y_max = max(y_max, 1.0)

    def sx(t):
        return left + plot_w * (t / max(n_ticks - 1, 1))

    def sy(v):
        return top + plot_h * (1.0 - v / y_max)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{left + plot_w / 2:.0f}" y="22" text-anchor="middle" '
        'font-family="sans-serif" font-size="15">'
        'Allocation residual by policy</text>',
        # shaded band: residuals within the tolerated shortfall
        f'<rect class="band" x="{left}" y="{sy(DEFAULT_MAX_DEVIATION):.2f}" '
        f'width="{plot_w}" '
        f'height="{sy(0.0) - sy(DEFAULT_MAX_DEVIATION):.2f}" '
        'fill="#9ecae1" opacity="0.35"/>',
    ]

    # axes
    parts.append(f'<line x1="{left}" y1="{sy(0):.2f}" x2="{left + plot_w}" '
                 f'y2="{sy(0):.2f}" stroke="black" stroke-width="1"/>')
    parts.append(f'<line x1="{left}" y1="{top}" x2="{left}" '
                 f'y2="{sy(0):.2f}" stroke="black" stroke-width="1"/>')
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        v = y_max * frac
        parts.append(f'<text x="{left - 8}" y="{sy(v) + 4:.2f}" '
                     'text-anchor="end" font-family="sans-serif" '
                     f'font-size="11">{v:.1f}</text>')
        if frac > 0:
            parts.append(f'<line x1="{left}" y1="{sy(v):.2f}" '
                         f'x2="{left + plot_w}" y2="{sy(v):.2f}" '
                         'stroke="#dddddd" stroke-width="0.6"/>')
    tick_step = max(n_ticks // 5, 1)
    for t in range(0, n_ticks, tick_step):
        parts.append(f'<text x="{sx(t):.2f}" y="{sy(0) + 18:.2f}" '
                     'text-anchor="middle" font-family="sans-serif" '
                     f'font-size="11">{t}</text>')
    parts.append(f'<text x="{left + plot_w / 2:.0f}" y="{height - 14}" '
                 'text-anchor="middle" font-family="sans-serif" '
                 'font-size="12">tick</text>')
    parts.append(f'<text x="18" y="{top + plot_h / 2:.0f}" '
                 'text-anchor="middle" font-family="sans-serif" '
                 f'font-size="12" transform="rotate(-90 18 '
                 f'{top + plot_h / 2:.0f})">residual (inf norm)</text>')

    # series and their post-prefix means; sx and sy as array ops
    xs = (left + plot_w * (np.arange(n_ticks) / max(n_ticks - 1, 1))).tolist()
    for kind in PolicyKind:
        result = results[kind]
        color = _POLICY_COLORS[kind]
        ys = (top + plot_h * (1.0 - result.residual_inf_series / y_max)
              ).tolist()
        path = " ".join(f"{'L' if i else 'M'}{x:.2f},{y:.2f}"
                        for i, (x, y) in enumerate(zip(xs, ys)))
        parts.append(f'<path class="series" d="{path}" '
                     f'fill="none" stroke="{color}" stroke-width="1.4"/>')
        mean_v = result.mean_residual_after_prefix
        if np.isfinite(mean_v):
            parts.append(f'<line x1="{sx(prefix):.2f}" y1="{sy(mean_v):.2f}" '
                         f'x2="{sx(n_ticks - 1):.2f}" y2="{sy(mean_v):.2f}" '
                         f'stroke="{color}" stroke-width="1.2" '
                         'stroke-dasharray="6,4"/>')

    # legend
    lx, ly = left + 12, top + 12
    for i, kind in enumerate(PolicyKind):
        color = _POLICY_COLORS[kind]
        y = ly + 18 * i
        parts.append(f'<line x1="{lx}" y1="{y}" x2="{lx + 22}" y2="{y}" '
                     f'stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{lx + 28}" y="{y + 4}" '
                     'font-family="sans-serif" font-size="12">'
                     f'{_POLICY_LABELS[kind]}</text>')

    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def config_digest(config: ScenarioConfig) -> str:
    canonical = json.dumps(scenario_to_dict(config), sort_keys=True,
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def summarize(results: dict[PolicyKind, SimResult]) -> str:
    """Human-readable comparison summary (also embedded in the manifest)."""
    lines = ["policy            mean residual (post-prefix)   reallocations"]
    for kind in PolicyKind:
        result = results[kind]
        lines.append(f"{_POLICY_LABELS[kind]:<18}"
                     f"{result.mean_residual_after_prefix:>18.6f}"
                     f"{len(result.reallocation_ticks):>16d}")
    return "\n".join(lines) + "\n"


def build_manifest(command: str, config: ScenarioConfig, seed: int,
                   outputs: dict[str, str],
                   results: dict[PolicyKind, SimResult]) -> dict:
    summary = {}
    for kind, result in results.items():
        mean = result.mean_residual_after_prefix
        summary[kind.value] = {
            # no tick after the prefix leaves the mean undefined: JSON null
            "mean_residual_after_prefix": None if np.isnan(mean) else mean,
            "reallocations": len(result.reallocation_ticks)}
    return {
        "command": command,
        "seed": seed,
        "config_digest": config_digest(config),
        "outputs": outputs,
        "summary": summary,
    }


def write_manifest(path, manifest: dict) -> None:
    text = json.dumps(manifest, indent=2, sort_keys=True, allow_nan=False)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text + "\n")
