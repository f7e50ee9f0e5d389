"""Report rendering: JSON export, CSV tables mirroring the published
summary tables, and a static self-contained HTML report.

CSV keeps the Spanish column headers for table fidelity; JSON sticks to
ASCII field names.
"""

from __future__ import annotations

import csv
import html
import json
import statistics
from pathlib import Path

from .pipeline import Run

METRICS_CSV_HEADER = ("Métrica", "Promedio Diario", "Valor Mínimo", "Valor Máximo")
AP_CSV_HEADER = ("ID del AP", "Conexiones Mensuales", "Latencia Promedio (ms)",
                 "Pérdida de Paquetes (%)")


def _series_row(label: str, values, digits: int = 1) -> list:
    fmt = (lambda v: round(v, digits)) if digits else (lambda v: v)
    return [label, fmt(statistics.fmean(values)), fmt(min(values)), fmt(max(values))]


def metrics_table(run: Run) -> list[list]:
    aggs = run.aggregates
    counts = [run.daily_anomaly_counts[a["day"]] for a in aggs]
    return [
        _series_row("Usuarios activos (conexiones totales)",
                    [a["connections"] for a in aggs], digits=0),
        _series_row("Duración promedio de sesión (minutos)",
                    [a["mean_session_minutes"] for a in aggs]),
        _series_row("Intentos fallidos de conexión",
                    [a["auth_failures"] for a in aggs], digits=0),
        _series_row("Tráfico total (GB/día)",
                    [a["traffic_gb"] for a in aggs]),
        _series_row("% de puntos de acceso sobrecargados",
                    [a["overload_pct"] for a in aggs]),
        _series_row("Anomalías detectadas", counts, digits=0),
    ]


def ap_table(run: Run) -> list[list]:
    rows = []
    for s in run.ap_stats:  # already sorted by monthly connections desc
        rows.append([
            s["ap"],
            s["monthly_connections"],
            "" if s["mean_latency_ms"] is None else round(s["mean_latency_ms"], 1),
            "" if s["mean_loss_pct"] is None else round(s["mean_loss_pct"], 2),
        ])
    return rows


def render_report(run: Run, outdir: str) -> list[str]:
    """Write report.json, metrics_table.csv, ap_table.csv, and report.html;
    returns the written paths."""
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    written = []

    report = {
        "input_digest": run.manifest["input_digest"],
        "config": run.manifest["config"],
        "daily": run.aggregates,
        "daily_anomaly_counts": run.daily_anomaly_counts,
        "hourly_profile": run.hourly_profile,
        "ap_stats": run.ap_stats,
        "anomalies": run.anomalies,
        "recommendations": run.recommendations,
    }
    path = out / "report.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True, ensure_ascii=True)
        fh.write("\n")
    written.append(str(path))

    for name, header, rows in (
            ("metrics_table.csv", METRICS_CSV_HEADER, metrics_table(run)),
            ("ap_table.csv", AP_CSV_HEADER, ap_table(run))):
        path = out / name
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
        written.append(str(path))

    path = out / "report.html"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_render_html(run))
    written.append(str(path))
    return written


def _html_table(header, rows) -> str:
    head = "".join(f"<th>{html.escape(str(h))}</th>" for h in header)
    body = "".join(
        "<tr>" + "".join(f"<td>{html.escape(str(c))}</td>" for c in row) + "</tr>"
        for row in rows)
    return f"<table><thead><tr>{head}</tr></thead><tbody>{body}</tbody></table>"


def _render_html(run: Run) -> str:
    daily_rows = [
        [a["day"], a["connections"], round(a["traffic_gb"], 1),
         a["auth_failures"], round(a["overload_pct"], 1),
         run.daily_anomaly_counts[a["day"]]]
        for a in run.aggregates
    ]
    hourly_rows = [[h, round(v, 1)] for h, v in enumerate(run.hourly_profile)]
    anomaly_rows = [
        [e["day"], e["type"], e["severity"], round(e["score"], 2), e["detector"],
         e.get("device") or "", e.get("ap") or ""]
        for e in run.anomalies
    ]
    reco_rows = [
        [r["action"], r["target"] or "network-wide", r["rationale"],
         len(r["linked_events"])]
        for r in run.recommendations
    ]
    sections = [
        "<h1>WLAN telemetry report</h1>",
        f"<p>Input digest: <code>{html.escape(run.manifest['input_digest'])}</code></p>",
        "<h2>Resumen de métricas</h2>",
        _html_table(METRICS_CSV_HEADER, metrics_table(run)),
        "<h2>Serie diaria</h2>",
        _html_table(["Día", "Conexiones", "Tráfico (GB)", "Fallos auth",
                     "Sobrecarga %", "Anomalías"], daily_rows),
        "<h2>Perfil horario (conexiones concurrentes medias)</h2>",
        _html_table(["Hora local", "Concurrencia media"], hourly_rows),
        "<h2>Puntos de acceso</h2>",
        _html_table(AP_CSV_HEADER, ap_table(run)),
        "<h2>Anomalías</h2>",
        _html_table(["Día", "Tipo", "Severidad", "Score", "Detector",
                     "Dispositivo", "AP"], anomaly_rows)
        if anomaly_rows else "<p>Sin anomalías.</p>",
        "<h2>Recomendaciones</h2>",
        _html_table(["Acción", "Objetivo", "Justificación", "Eventos"], reco_rows)
        if reco_rows else "<p>Sin recomendaciones.</p>",
    ]
    style = ("body{font-family:sans-serif;margin:2em}"
             "table{border-collapse:collapse;margin:1em 0}"
             "td,th{border:1px solid #999;padding:3px 8px;text-align:right}"
             "th{background:#eee}")
    return ("<!doctype html><html><head><meta charset='utf-8'>"
            f"<title>WLAN telemetry report</title><style>{style}</style></head>"
            "<body>" + "".join(sections) + "</body></html>\n")
